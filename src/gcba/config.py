"""Global numeric settings: tolerances, sampling resolutions, ceilings.

The ceilings stand for the nonconstructive constants of the underlying
theory (bad-set and exceptional-point cardinalities, strainer-count caps);
they are asserted, not derived.  Each complex carries one Settings instance,
given to its builder, and every computation on the complex reads it; the
defaults reproduce the shipped test suite.  A settings file may set only the
fields below: `load_settings` rejects any other key.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Settings:
    # geodesics
    angle_tolerance: float = 1e-6       # local-geodesic turning certificate (rad)
    max_developments: int = 20000       # cap on unfolded corridors per source
    # links / directions
    angular_resolution: float = math.pi / 180.0
    delta_grid: float = 1e-3            # resolution of the delta bisection grid
    strict_margin: float = 1e-9         # slack used for strict inequalities
    # measures
    mc_target_rel_error: float = 0.005  # Monte Carlo standard-error target
    # ceilings (assertions, not derivations)
    c0_ceiling: int = 64                # bad-set cardinality ceiling
    c1_ceiling: int = 64                # per-fiber exceptional-point ceiling
    k0_ceiling: int = 8                 # max strainer size ever accepted
    # geometry predicates
    rel_tol: float = 1e-9               # relative tolerance, geometric predicates
    bary_tol: float = 1e-12             # barycentric canonicalization
    # determinism
    seed: int = 0

    def replace(self, **kw) -> "Settings":
        return dataclasses.replace(self, **kw)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


DEFAULTS = Settings()


def load_settings(path: str | None) -> Settings:
    """Read settings overrides from a JSON or TOML file; missing path = defaults."""
    if path is None:
        return DEFAULTS
    with open(path, "rb") as fh:
        raw = fh.read()
    if path.endswith(".toml"):
        import tomllib

        data = tomllib.loads(raw.decode())
    else:
        data = json.loads(raw.decode())
    known = {f.name for f in dataclasses.fields(Settings)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown settings keys: {sorted(unknown)}")
    return Settings(**data)
