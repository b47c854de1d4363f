"""2-D chip thermal solver: testing the uniform-dissipation assumption.

Section 3.2 argues that because silicon conducts heat far better than
brain tissue, "heat spreads more rapidly across the chip than into
surrounding tissue", so non-uniform on-chip power still dissipates nearly
uniformly from the implant surface — the assumption behind using a single
40 mW/cm^2 figure.  This module checks that claim quantitatively.

Model: the chip is a thin conductive sheet.  Steady-state balance per
cell:

    k_sheet * t * laplacian(T) = h_eff * (T - T_tissue) - q''(x, y)

discretized on an N x M grid and solved directly (sparse LU).  ``h_eff``
is the perfused-tissue surface coefficient from
:class:`~repro.thermal.model.TissueThermalModel`; ``k_sheet * t`` is the
silicon sheet conductance.  The interesting output is the *hotspot
ratio*: peak over mean surface temperature rise for a concentrated power
map — close to 1 means the paper's assumption holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, lil_matrix
from scipy.sparse.linalg import spsolve

from repro.thermal.model import TissueThermalModel
from repro.units import mm


@dataclass(frozen=True)
class ChipThermalGrid:
    """Finite-difference thermal model of a thin implanted chip.

    Attributes:
        width_m / height_m: chip dimensions.
        nx / ny: grid resolution.
        silicon_conductivity_w_mk: lateral sheet conductivity.
        thickness_m: chip thickness (thinned dies: tens of um).
        tissue: the perfused-tissue surface model (gives h_eff).
    """

    width_m: float = mm(12.0)
    height_m: float = mm(12.0)
    nx: int = 32
    ny: int = 32
    silicon_conductivity_w_mk: float = 148.0
    thickness_m: float = mm(0.025)
    tissue: TissueThermalModel = TissueThermalModel()

    def __post_init__(self) -> None:
        if self.width_m <= 0 or self.height_m <= 0:
            raise ValueError("chip dimensions must be positive")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid must be at least 2x2")
        if self.silicon_conductivity_w_mk <= 0 or self.thickness_m <= 0:
            raise ValueError("sheet parameters must be positive")

    @property
    def cell_area_m2(self) -> float:
        """Area of one grid cell."""
        return (self.width_m / self.nx) * (self.height_m / self.ny)

    def _conductances(self) -> tuple[float, float, float]:
        """(gx, gy, g_tissue) of the discretized balance equation."""
        dx = self.width_m / self.nx
        dy = self.height_m / self.ny
        sheet = self.silicon_conductivity_w_mk * self.thickness_m
        gx = sheet * dy / dx  # lateral conductance between x-neighbours
        gy = sheet * dx / dy
        g_tissue = self.tissue.effective_h_w_m2k * self.cell_area_m2
        return gx, gy, g_tissue

    def _assemble(self, power_map_w: np.ndarray,
                  ) -> tuple[csr_matrix, np.ndarray]:
        """Vectorized finite-difference assembly (production path).

        Builds the same system as :meth:`_assemble_reference` — identical
        values and sparsity pattern — from whole-grid index arrays
        instead of an O(nx*ny) Python double loop.  The diagonal adds the
        per-neighbour conductances in the reference's left/right/up/down
        order so the float sums match bit for bit.
        """
        gx, gy, g_tissue = self._conductances()
        n = self.nx * self.ny
        cells = np.arange(n, dtype=np.int64)
        iy, ix = np.divmod(cells, self.nx)

        neighbours = (
            (ix > 0, -1, gx),              # left
            (ix < self.nx - 1, +1, gx),    # right
            (iy > 0, -self.nx, gy),        # up
            (iy < self.ny - 1, +self.nx, gy),  # down
        )
        diag = np.full(n, g_tissue)
        rows = [cells]
        cols = [cells]
        data = [diag]
        for mask, offset, g in neighbours:
            diag = diag + np.where(mask, g, 0.0)
            here = cells[mask]
            rows.append(here)
            cols.append(here + offset)
            data.append(np.full(here.size, -g))
        data[0] = diag
        matrix = csr_matrix(
            (np.concatenate(data),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n))
        return matrix, power_map_w.ravel().astype(float)

    def _assemble_reference(self, power_map_w: np.ndarray,
                            ) -> tuple[csr_matrix, np.ndarray]:
        """Original double-loop assembly, kept as the parity oracle for
        :meth:`_assemble` (``tests/thermal/test_grid.py``)."""
        gx, gy, g_tissue = self._conductances()
        n = self.nx * self.ny

        matrix = lil_matrix((n, n))
        rhs = np.zeros(n)

        def index(iy: int, ix: int) -> int:
            return iy * self.nx + ix

        for iy in range(self.ny):
            for ix in range(self.nx):
                here = index(iy, ix)
                diag = g_tissue
                for niy, nix, g in ((iy, ix - 1, gx), (iy, ix + 1, gx),
                                    (iy - 1, ix, gy), (iy + 1, ix, gy)):
                    if 0 <= niy < self.ny and 0 <= nix < self.nx:
                        diag += g
                        matrix[here, index(niy, nix)] = -g
                matrix[here, here] = diag
                rhs[here] = power_map_w[iy, ix]
        return matrix.tocsr(), rhs

    def solve(self, power_map_w: np.ndarray) -> np.ndarray:
        """Steady-state temperature rise field [K].

        Args:
            power_map_w: (ny, nx) per-cell dissipated power.

        Returns:
            (ny, nx) temperature rise over tissue baseline.

        Raises:
            ValueError: on shape mismatch or negative power.
        """
        power_map_w = np.asarray(power_map_w, dtype=float)
        if power_map_w.shape != (self.ny, self.nx):
            raise ValueError(
                f"power map must be ({self.ny}, {self.nx})")
        if np.any(power_map_w < 0):
            raise ValueError("power must be non-negative")

        matrix, rhs = self._assemble(power_map_w)
        solution = spsolve(matrix, rhs)
        return solution.reshape(self.ny, self.nx)

    def uniform_map(self, total_power_w: float) -> np.ndarray:
        """A uniform power map dissipating ``total_power_w``."""
        if total_power_w < 0:
            raise ValueError("power must be non-negative")
        return np.full((self.ny, self.nx),
                       total_power_w / (self.nx * self.ny))

    def hotspot_map(self, total_power_w: float,
                    fraction_of_area: float = 0.05) -> np.ndarray:
        """All power concentrated in a central block of the given area."""
        if not 0.0 < fraction_of_area <= 1.0:
            raise ValueError("fraction must lie in (0, 1]")
        side = max(1, int(round(np.sqrt(
            fraction_of_area * self.nx * self.ny))))
        power_map = np.zeros((self.ny, self.nx))
        y0 = (self.ny - side) // 2
        x0 = (self.nx - side) // 2
        power_map[y0:y0 + side, x0:x0 + side] = (
            total_power_w / (side * side))
        return power_map

    def hotspot_ratio(self, total_power_w: float,
                      fraction_of_area: float = 0.05) -> float:
        """Peak/mean rise of a concentrated map — 1.0 means perfectly
        uniform dissipation (the Section 3.2 assumption)."""
        field = self.solve(self.hotspot_map(total_power_w,
                                            fraction_of_area))
        mean = float(field.mean())
        if mean == 0:
            return 1.0
        return float(field.max()) / mean
