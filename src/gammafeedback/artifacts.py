"""
CSV artifact schemas and the content digest.

All numbers serialize with their shortest round-trip representation, so a
written file parses back to bit-identical doubles. Each writer returns a
one-shot iterator of chunks and formats each chunk only when it is asked
for the next one, so no output is held whole; ``"".join`` it once for the
text. Schemas:

- grid:       ``beta,G,value,singular`` row-major over (beta, G) nodes
- contour:    ``polyline_id,beta,G``
- trajectory: ``t,S,dS,m_cum,N,mu,nu``
- curve:      ``beta,g_star`` (critical-exposure scan)

``sha256_hex`` is the digest the run manifest records for every output.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator

from .analysis import ContourSet, GridScan
from .dynamics import SimState, Trajectory


def grid_csv(scan: GridScan) -> Iterator[str]:
    gs = [repr(g) for g in scan.spec.gs()]
    yield "beta,G,value,singular\n"  # then one chunk per beta row
    for beta, row_values, row_flags in zip(scan.spec.betas(), scan.values, scan.singular):
        b = repr(beta)
        if any(row_flags):
            yield "".join([f"{b},{g},{v!r},{'01'[flag]}\n" for g, v, flag
                           in zip(gs, row_values, row_flags)])
        else:
            yield "".join([f"{b},{g},{v!r},0\n" for g, v in zip(gs, row_values)])


def contour_csv(contours: ContourSet) -> Iterator[str]:
    yield "polyline_id,beta,G\n"  # then one chunk per polyline
    for pid, line in enumerate(contours.polylines):
        yield "".join([f"{pid},{b!r},{g!r}\n" for b, g in line])


# Long trajectories are formatted this many states at a time, so that the
# per-line strings alive at once stay few.
_STATES_PER_CHUNK = 1024


def trajectory_csv(traj: Trajectory) -> Iterator[str]:
    columns = traj.arrays(*SimState._fields)
    yield "t,S,dS,m_cum,N,mu,nu\n"
    for start in range(0, len(traj), _STATES_PER_CHUNK):
        stop = start + _STATES_PER_CHUNK
        yield "".join([
            f"{t},{s!r},{ds!r},{m!r},{n!r},{mu!r},{nu!r}\n"
            for t, s, ds, m, n, mu, nu in zip(*[col[start:stop] for col in columns])
        ])


def curve_csv(betas, values, value_name: str = "g_star") -> Iterator[str]:
    yield f"beta,{value_name}\n"
    yield "".join([f"{float(b)!r},{float(v)!r}\n" for b, v in zip(betas, values)])


def sha256_hex(data) -> str:
    """The digest of a str (as UTF-8), bytes, or an iterable of either in order."""
    digest = hashlib.sha256()
    for chunk in (data,) if isinstance(data, (bytes, str)) else data:
        digest.update(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
    return digest.hexdigest()

