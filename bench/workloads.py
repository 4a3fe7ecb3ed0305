"""Seeded workload generators for the lpcompact benchmark.

Each workload is a spec document (grid, space, members) plus the share of the
family's uniform bound used as epsilon and the projector variant.  The seed
only moves member centres: seed 0 reproduces the reference inputs exactly,
any other seed perturbs them while keeping the property the workload exists
for (BENCHMARK.json says why each one is there).  Only numpy is needed, so
the harness generates specs without importing lpcompact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_SEED = 0

# Reference 1-D family: 20 Gaussians of width 0.5 spread over [-1.5, 1.5].
_LINE_CENTRES = np.linspace(-1.5, 1.5, 20)
# Other seeds move each centre by at most a fifth of the spacing, small enough
# that every seed selects the same tail level and mesh as seed 0.
_LINE_JITTER = 0.2 * (_LINE_CENTRES[1] - _LINE_CENTRES[0])


def _line_centres(seed: int) -> np.ndarray:
    if seed == DEFAULT_SEED:
        return _LINE_CENTRES
    rng = np.random.default_rng(seed)
    return _LINE_CENTRES + rng.uniform(-_LINE_JITTER, _LINE_JITTER, _LINE_CENTRES.size)


def _sheet_centres(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-0.8, 0.8, size=(8, 2))


def _gaussians(centres) -> list[dict]:
    out = []
    for c in centres:
        centre = [float(x) for x in c] if np.ndim(c) else float(c)
        out.append({"kind": "gaussian", "center": centre, "sigma": 0.5})
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    box_level: int
    cell_exp: int
    p: float
    weight: dict
    centres: Callable[[int], np.ndarray]
    eps_share: float
    variant: str
    # True when a certificate document shows the property the workload exists for
    defining: Callable[[dict], bool]

    def spec(self, seed: int) -> dict:
        return {
            "grid": {"dim": self.dim, "box_level": self.box_level, "cell_exp": self.cell_exp},
            "space": {"p": self.p, "weight": dict(self.weight)},
            "members": _gaussians(self.centres(seed)),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bank1d",
            dim=1,
            box_level=2,
            cell_exp=-13,
            p=2.0,
            weight={"kind": "power", "exponent": 0.5},
            centres=_line_centres,
            eps_share=0.05,
            variant="banach",
            # |x|^0.5 is positive at every cell centre, so no cube is null
            defining=lambda cert: cert["plan"]["cube_exp"] > cert["grid"]["cell_exp"],
        ),
        Workload(
            name="sheet2d_null",
            dim=2,
            box_level=1,
            cell_exp=-6,
            p=2.0,
            weight={"kind": "power", "exponent": 0.5, "support": 1.5},
            centres=_sheet_centres,
            # at 30% select_mesh finds no admissible mesh at this resolution
            eps_share=0.60,
            variant="vanishing",
            defining=lambda cert: len(cert["null_cubes"]) > 0,
        ),
        Workload(
            name="quasi_half",
            dim=1,
            box_level=2,
            cell_exp=-12,
            p=0.5,
            weight={"kind": "constant", "value": 1.0},
            centres=_line_centres,
            eps_share=0.20,
            variant="banach",
            # the certificate's space_p is the companion exponent p*N
            defining=lambda cert: "quasi" in cert and cert["quasi"]["p"] < 1,
        ),
    )
}
