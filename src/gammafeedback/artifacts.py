"""
CSV artifact schemas, content digests, and the run manifest.

All numbers serialize with their shortest round-trip representation, so a
written file parses back to bit-identical doubles. Schemas:

- grid:       ``beta,G,value,singular`` row-major over (beta, G) nodes
- contour:    ``polyline_id,beta,G``
- trajectory: ``t,S,dS,m_cum,N,mu,nu``
- curve:      ``beta,g_star`` (critical-exposure scan)

The manifest is a JSON document recording the tool version, subcommand,
resolved configuration text, seeds, wall-clock duration, and a SHA-256
digest per output file; re-running the resolved config reproduces the
digests byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import ContourSet, GridScan
from .dynamics import Trajectory


def grid_csv(scan: GridScan) -> str:
    gs = [repr(g) for g in scan.spec.gs()]
    rows = ["beta,G,value,singular\n"]  # then one string per beta row
    for beta, row_values, row_flags in zip(scan.spec.betas(), scan.values, scan.singular):
        b = repr(beta)
        if any(row_flags):
            rows.append("".join([f"{b},{g},{v!r},{'01'[flag]}\n" for g, v, flag
                                 in zip(gs, row_values, row_flags)]))
        else:
            rows.append("".join([f"{b},{g},{v!r},0\n" for g, v in zip(gs, row_values)]))
    return "".join(rows)


def contour_csv(contours: ContourSet) -> str:
    rows = ["polyline_id,beta,G\n"]  # then one string per polyline
    for pid, line in enumerate(contours.polylines):
        rows.append("".join([f"{pid},{b!r},{g!r}\n" for b, g in line]))
    return "".join(rows)


# Long trajectories are formatted this many states at a time, so that the
# per-line strings alive at once stay few.
_STATES_PER_CHUNK = 1024


def trajectory_csv(traj: Trajectory) -> str:
    states = traj.states
    chunks = ["t,S,dS,m_cum,N,mu,nu\n"]
    for start in range(0, len(states), _STATES_PER_CHUNK):
        # float(): a start state may carry the caller's int n0 and s0
        chunks.append("".join([
            f"{t},{float(s)!r},{float(ds)!r},{float(m)!r},{float(n)!r},{float(mu)!r},"
            f"{float(nu)!r}\n"
            for t, s, ds, m, n, mu, nu in states[start:start + _STATES_PER_CHUNK]
        ]))
    return "".join(chunks)


def curve_csv(betas, values, value_name: str = "g_star") -> str:
    return f"beta,{value_name}\n" + "".join([f"{float(b)!r},{float(v)!r}\n"
                                              for b, v in zip(betas, values)])


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


# Identifies the seeded-generator algorithm stack for reproducibility audits.
PRNG_ID = "splitmix64-seeded xoshiro256** + box-muller"


@dataclass
class RunManifest:
    """Reproducibility record written alongside every run's outputs."""

    tool: str
    version: str
    subcommand: str
    config_text: str
    seeds: dict[str, int] = field(default_factory=dict)
    prng: str = PRNG_ID
    duration_seconds: float = 0.0
    outputs: list[dict[str, str]] = field(default_factory=list)

    def add_output(self, path: Path, content: bytes | str) -> None:
        self.outputs.append({"path": path.name, "sha256": sha256_hex(content)})

    def to_json(self) -> str:
        return json.dumps(
            {
                "tool": self.tool,
                "version": self.version,
                "subcommand": self.subcommand,
                "seeds": self.seeds,
                "prng": self.prng,
                "duration_seconds": self.duration_seconds,
                "outputs": self.outputs,
                "config": self.config_text,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        raw = json.loads(text)
        return cls(
            tool=raw["tool"],
            version=raw["version"],
            subcommand=raw["subcommand"],
            config_text=raw["config"],
            seeds={k: int(v) for k, v in raw["seeds"].items()},
            prng=raw["prng"],
            duration_seconds=raw["duration_seconds"],
            outputs=raw["outputs"],
        )
