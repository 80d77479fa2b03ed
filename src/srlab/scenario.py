"""Scenario definition and strict JSON config loading.

One config schema is shared by every CLI subcommand; each subcommand
reads only its section.  Unknown keys are rejected everywhere so a typo
in a parameter name cannot silently skew a campaign.
"""

from __future__ import annotations

import json
import math
import sys
import types
import typing
from dataclasses import dataclass, field, is_dataclass, replace

from .grid import MAX_PIXELS
from .metrology import check_ladder_fits
from .simulator import _DECIMATION, REFERENCE_SIGNAL, SystemParams
from .solver import SolverConfig, check_btv_fits
from .target import StarSpec

__all__ = ["Scenario", "MonteCarloConfig", "ScenarioConfig", "load_config"]


@dataclass(frozen=True)
class Scenario:
    """Everything a trial needs besides the sampled system parameters.

    Desk-scale defaults: 256^2 HR grid, 144-cycle star with a 24 px
    quiet border (blur wraparound never touches the star), 80-ring
    measurement ladder, the simulator's reference signal for the NEM, and
    the calibrated shallow solver budget.
    """

    star: StarSpec = field(default_factory=StarSpec)
    grid_size: tuple[int, int] = (256, 256)
    solver: SolverConfig = field(default_factory=SolverConfig)
    nem_signal: float = REFERENCE_SIGNAL
    n_rings: int = 80

    def __post_init__(self):
        if not 0.0 < self.nem_signal < math.inf:
            raise ValueError(f"NEM reference signal must be finite and > 0, "
                             f"got {self.nem_signal!r}")
        if not self.n_rings >= 3:
            raise ValueError("need at least 3 measurement rings")
        check_ladder_fits(self.n_rings, self.star.outer_radius)
        if any(n % 2 for n in self.grid_size):
            raise ValueError(f"grid dimensions must be even (the blur needs "
                             f"them), got {self.grid_size[0]}x{self.grid_size[1]}")
        if self.grid_size[0] * self.grid_size[1] > MAX_PIXELS:
            raise ValueError(f"grid {self.grid_size[0]}x{self.grid_size[1]}: more than "
                             f"{MAX_PIXELS} pixels, the budget of an image file")
        check_btv_fits(self.solver.p_radius, self.grid_size)
        # every trial's observations have the simulator's decimation
        if self.solver.sr_factor is not None and tuple(self.solver.sr_factor) != _DECIMATION:
            raise ValueError(f"solver key 'sr_factor' {self.solver.sr_factor!r}: the "
                             f"instrument's decimation is {_DECIMATION}")


@dataclass(frozen=True)
class MonteCarloConfig:
    """Campaign section of the config file."""

    n_trials: int = 200
    master_seed: int | None = None
    bin_width_m: float = 0.05

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if not self.bin_width_m > 0:
            raise ValueError(f"bin width must be > 0, got {self.bin_width_m!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Top-level config: star + system + solver + campaign + output dir."""

    scenario: Scenario = field(default_factory=Scenario)
    system: SystemParams = field(default_factory=SystemParams)
    montecarlo: MonteCarloConfig = field(default_factory=MonteCarloConfig)
    output_dir: str = "."


# JSON keys that need renaming to dataclass fields
_SOLVER_KEY_MAP = {"lambda": "lam", "P": "p_radius"}


def _conforms(value, hint) -> bool:
    """Whether a JSON value fits a str, int, float (an int a float can
    hold fits too; a bool, NaN or infinity fits neither), fixed-length
    tuple or optional field annotation."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):  # X | None
        return value is None or any(_conforms(value, a) for a in args)
    if typing.get_origin(hint) is tuple:
        return (isinstance(value, list) and len(value) == len(args)
                and all(map(_conforms, value, args)))
    if isinstance(value, bool):
        return False
    if hint is float:  # compares exactly, so also an int past the float range fails
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return hint in (str, int) and isinstance(value, hint)


def _checked(value, hint, where: str, key: str):
    """value as the field stores it (JSON lists become tuples); raises
    ValueError naming where the key is and the key when its type is wrong."""
    if not _conforms(value, hint):
        name = hint.__name__ if isinstance(hint, type) else str(hint)
        raise ValueError(f"{where}: key {key!r} must be {name}, got {value!r}")
    return tuple(value) if isinstance(value, list) else value


def _apply(base, section: dict, what: str, key_map: dict | None = None):
    """Copy of dataclass instance base with a JSON mapping's keys applied.

    key_map renames JSON keys to fields.  Unknown keys are rejected, and
    so are a renamed field's own name and nested records (such as
    SystemParams.geometry, which the instrument fixes); a value of the
    wrong type is rejected naming its section and key; omitted keys keep
    base's values.
    """
    if not isinstance(section, dict):
        raise ValueError(f"config section {what!r} must be a mapping")
    hints = typing.get_type_hints(type(base))
    key_map = key_map or {}
    kwargs = {}
    for key, value in section.items():
        name = key_map.get(key, key)
        # a field with a JSON spelling of its own has only that one
        if name not in hints or is_dataclass(hints[name]) or key in key_map.values():
            raise ValueError(f"unknown key {key!r} in config section {what!r}")
        kwargs[name] = _checked(value, hints[name], f"config section {what!r}", key)
    return replace(base, **kwargs)


def load_config(path) -> ScenarioConfig:
    """Parse a JSON scenario config with strict key checking.

    Every section and key is optional; what is left out keeps the
    ScenarioConfig() defaults (the calibrated scenario and solver).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config root must be a mapping")

    known = {"star", "grid", "system", "solver", "montecarlo", "nem_signal",
             "n_rings", "output_dir"}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"{path}: unknown top-level keys {sorted(unknown)}")

    config = ScenarioConfig()
    default = config.scenario
    grid = raw.get("grid", {})
    if not isinstance(grid, dict) or set(grid) - {"height", "width"}:
        raise ValueError(f"{path}: grid section takes only height and width")
    height, width = default.grid_size
    top = {key: raw[key] for key in ("nem_signal", "n_rings") if key in raw}
    # the star first: n_rings is bounded by the star's outer radius
    scenario = _apply(replace(
        default,
        star=_apply(default.star, raw.get("star", {}), "star"),
        grid_size=tuple(_checked(grid.get(key, n), int, "config section 'grid'", key)
                        for key, n in (("height", height), ("width", width))),
        solver=_apply(default.solver, raw.get("solver", {}), "solver",
                      key_map=_SOLVER_KEY_MAP)), top, "top level")
    return replace(
        config, scenario=scenario,
        system=_apply(config.system, raw.get("system", {}), "system"),
        montecarlo=_apply(config.montecarlo, raw.get("montecarlo", {}), "montecarlo"),
        output_dir=_checked(raw.get("output_dir", config.output_dir), str,
                            "config section 'top level'", "output_dir"))
