"""System configuration, application profiles, and feasibility arithmetic.

Units: task sizes and queue lengths in bits, clock rates in cycles/s,
bandwidth in bits/s. One slot is one second, so per-slot and per-second
rates coincide. Size suffix convention follows the usual storage units:
1 kB = 8*1024 bits, 1 MB = 8*1024*1024 bits. A `SystemConfig` refuses bad
values when it is built, by `replace` too: it raises `ConfigError`, whose
`errors` lists every rule they break.

Power costs are in kappa*(Gcycles/s)^3 units. The constant kappa itself is
not modelled: it would only rescale the penalty weight V. The learner's
discount factor gamma is `SacConfig.discount`, not part of the system.
`config_from_dict` refuses keys that are not fields, but for the `kappa`,
`discount` and `n_queues` keys that configs written by earlier versions hold,
which it ignores: the number of queues is the number of apps.

It is the one way from a description to a `SystemConfig`: the built-in
`PROFILES` are config dicts in the layout of a JSON file, and `get_profile`
reads one as a file is read. An app given by its size bounds alone gets the
tabulated profiles' moments from `AppProfile` itself: the mean at the centre
of the bounds and a quarter-range spread.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cached_property

import numpy as np

BITS_PER_BYTE = 8.0
BITS_PER_KB = 8.0 * 1024
BITS_PER_MB = 8.0 * 1024 * 1024

CLOUD_COST_KINDS = ("cubic", "per-core")
_LEGACY_KEYS = ("kappa", "discount", "n_queues")


def parse_size(value) -> float:
    """Parse a task size given in bits (number) or with a B/kB/MB suffix."""
    if isinstance(value, (int, float)):
        return float(value)
    s = str(value).strip()
    for suffix, factor in (("MB", BITS_PER_MB), ("kB", BITS_PER_KB),
                           ("KB", BITS_PER_KB), ("B", BITS_PER_BYTE)):
        if s.endswith(suffix):
            return float(s[: -len(suffix)]) * factor
    return float(s)


@dataclass(frozen=True)
class AppProfile:
    """One application type: workload density and its task-arrival statistics.
    A size moment left out is filled from the size bounds: the mean at their
    centre, the spread a quarter of their range."""

    workload_cycles_per_bit: float    # w_i, cycles needed per task bit
    arrival_rate: float               # lambda_i, task arrivals per slot
    size_min: float                   # d_min, bits
    size_max: float                   # d_max, bits
    size_mean: float | None = None    # mu_i, bits
    size_std: float | None = None     # sigma_i, bits
    name: str = ""

    def __post_init__(self):
        if self.size_mean is None:
            object.__setattr__(self, "size_mean", (self.size_max + self.size_min) / 2.0)
        if self.size_std is None:
            object.__setattr__(self, "size_std", (self.size_max - self.size_min) / 4.0)

    @property
    def mean_bits_per_slot(self) -> float:
        """m_i = lambda_i * mu_i, the mean arriving bits per slot."""
        return self.arrival_rate * self.size_mean

    @property
    def mean_cycles_per_slot(self) -> float:
        """lambda_i * mu_i * w_i, the mean cycle demand per slot."""
        return self.mean_bits_per_slot * self.workload_cycles_per_bit


class ConfigError(ValueError):
    """Bad SystemConfig values; `errors` holds one message per broken rule."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class SystemConfig:
    """Edge/cloud capacities, cost constants, and reward constants."""

    edge_clock: float                # f_E, cycles/s
    edge_cores: int                  # N_E
    bandwidth: float                 # B, bits/s edge->cloud
    cloud_cores: int                 # N_C
    rho: float                       # queue-reward weight
    penalty_weight: float            # V
    reward_exponent: float           # nu >= 1
    episode_length: int              # T, slots
    apps: tuple[AppProfile, ...]
    cloud_cost_kind: str = "cubic"   # "cubic" | "per-core"
    cloud_core_clock: float = 4e9    # cycles/s of one cloud core

    def __post_init__(self):
        named = [(f.name, f.type, getattr(self, f.name)) for f in fields(self)]
        named += [(f"{app.name or f'app {i}'}: {f.name}", f.type, getattr(app, f.name))
                  for i, app in enumerate(self.apps) for f in fields(app)]
        errors = [f"{name} {value} is not a whole number" for name, kind, value in named
                  if kind == "int" and not isinstance(value, numbers.Integral)]
        errors += [f"{name} {value} not finite" for name, kind, value in named
                   if kind != "int" and isinstance(value, float) and not math.isfinite(value)]
        if not self.apps:
            errors.append("apps is empty: there is no queue")
        above = dict(edge_clock=0, bandwidth=0, cloud_core_clock=0, rho=0)
        at_least = dict(edge_cores=1, penalty_weight=0, reward_exponent=1, episode_length=1)
        errors += [f"{k} {x} <= {v}" for k, v in above.items() if (x := getattr(self, k)) <= v]
        errors += [f"{k} {x} < {v}" for k, v in at_least.items() if (x := getattr(self, k)) < v]
        if self.cloud_cores < 0:
            errors.append(f"cloud_cores {self.cloud_cores} < 0")
        elif self.cloud_cost_kind == "cubic" and self.cloud_cores < 1:
            errors.append(f"cloud_cores {self.cloud_cores} < 1 under the cubic cloud "
                          "cost, which would charge infinity for every offloaded bit")
        if self.cloud_cost_kind not in CLOUD_COST_KINDS:
            errors.append(f"cloud_cost_kind {self.cloud_cost_kind!r} not in {CLOUD_COST_KINDS}")
        for i, app in enumerate(self.apps):
            tag = app.name or f"app {i}"
            errors += [f"{tag}: {k} {x} <= 0" for k in ("workload_cycles_per_bit", "arrival_rate")
                       if (x := getattr(app, k)) <= 0]
            if not (0 < app.size_min < app.size_max):
                errors.append(f"{tag}: size bounds ({app.size_min}, {app.size_max}) invalid")
            mean_in_bounds = app.size_min <= app.size_mean <= app.size_max
            if not mean_in_bounds:
                errors.append(f"{tag}: size_mean {app.size_mean} outside bounds")
            if app.size_std <= 0:
                errors.append(f"{tag}: size_std {app.size_std} <= 0")
            # m_i = lambda_i * mu_i scales the observation: judged only when
            # both factors pass their own rules, so each cause has one message
            if (mean_in_bounds and 0 < app.arrival_rate < math.inf
                    and math.isfinite(app.size_mean)
                    and not 0 < app.mean_bits_per_slot < math.inf):
                errors.append(f"{tag}: mean bits per slot {app.mean_bits_per_slot} "
                              "(arrival_rate * size_mean) not in (0, inf)")
        if errors:
            raise ConfigError(errors)

    @property
    def n_queues(self) -> int:
        """N, one queue per app."""
        return len(self.apps)

    @cached_property
    def workloads(self) -> np.ndarray:
        """Vector of w_i, built once per config and read-only."""
        w = np.array([a.workload_cycles_per_bit for a in self.apps])
        w.flags.writeable = False
        return w

    @property
    def mean_bits_per_slot(self) -> np.ndarray:
        """Vector of m_i = lambda_i * mu_i."""
        return np.array([a.mean_bits_per_slot for a in self.apps])

    @property
    def state_dim(self) -> int:
        return 5 * self.n_queues + 1

    @property
    def action_dim(self) -> int:
        return 2 * self.n_queues + 2


@dataclass(frozen=True)
class FeasibilityReport:
    """Closed-form load check: cycle demand vs capacity and bandwidth demand."""

    per_app_cycle_rate: tuple[float, ...]  # lambda_i*mu_i*w_i, cycles/s
    total_cycle_rate: float
    total_capacity: float                  # f_E + N_C * cloud core clock
    required_bandwidth: float              # sum lambda_i*mu_i, bits/s
    bandwidth: float
    feasible: bool


def feasibility_check(cfg: SystemConfig) -> FeasibilityReport:
    """Average cycle and bandwidth demand against capacity; no simulation."""
    per_app = tuple(a.mean_cycles_per_slot for a in cfg.apps)
    total = float(sum(per_app))
    capacity = cfg.edge_clock + cfg.cloud_cores * cfg.cloud_core_clock
    required_bw = float(sum(a.mean_bits_per_slot for a in cfg.apps))
    return FeasibilityReport(
        per_app_cycle_rate=per_app,
        total_cycle_rate=total,
        total_capacity=capacity,
        required_bandwidth=required_bw,
        bandwidth=cfg.bandwidth,
        feasible=(total < capacity) and (required_bw < cfg.bandwidth),
    )


# ---------------------------------------------------------------------------
# JSON round trip


def _whole(value):
    """int(value) for a whole number; anything else (2.5, inf, nan) stays a
    float, which SystemConfig refuses."""
    x = float(value)
    return int(x) if x.is_integer() else x


def _parsed(cls, d: dict, where: str) -> dict:
    """The fields of dataclass cls that d holds, each read by its type: a
    whole number for an int, a size for a size_* field, a float for any
    other float; other values pass as they are. Other keys are ignored. A
    value that does not read is a ValueError naming where + its key."""
    out = {}
    for f in fields(cls):
        if f.name in d:
            value = d[f.name]
            try:
                if f.type == "int":
                    value = _whole(value)
                elif f.name.startswith("size_"):
                    value = parse_size(value)
                elif f.type == "float":
                    value = float(value)
            except (TypeError, ValueError):
                raise ValueError(f"{where}{f.name}: expected a number, got {value!r}") from None
            out[f.name] = value
    return out


def config_from_dict(d: dict) -> SystemConfig:
    """Inverse of `dataclasses.asdict` on a SystemConfig. The required keys
    are the fields of SystemConfig and, per app, of AppProfile that have no
    default; AppProfile fills a missing size_mean or size_std from the size
    bounds. A ValueError names every key that is not a field (but for the
    earlier versions' keys of the module docstring), else every missing
    required key, the apps' keys as apps[i].key; so does a value of the
    wrong JSON type."""
    if not isinstance(d, dict):
        raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
    entries = d.get("apps", [])
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"apps must be a list of JSON objects, got {type(entries).__name__}")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"apps[{i}] must be a JSON object, got {type(entry).__name__}")
    top, app = ({f.name for f in fields(cls)} for cls in (SystemConfig, AppProfile))
    unknown = [key for key in d if key not in top and key not in _LEGACY_KEYS]
    unknown += [f"apps[{i}].{key}" for i, entry in enumerate(entries)
                for key in entry if key not in app]
    if unknown:
        raise ValueError(f"config has unknown key(s): {', '.join(unknown)}")
    missing = [f.name for f in fields(SystemConfig) if f.default is MISSING and f.name not in d]
    missing += [f"apps[{i}].{f.name}" for i, entry in enumerate(entries)
                for f in fields(AppProfile) if f.default is MISSING and f.name not in entry]
    if missing:
        raise ValueError(f"config lacks required key(s): {', '.join(missing)}")
    apps = tuple(AppProfile(**_parsed(AppProfile, entry, f"apps[{i}]."))
                 for i, entry in enumerate(entries))
    return SystemConfig(**{**_parsed(SystemConfig, d, ""), "apps": apps})


def load_config(path) -> SystemConfig:
    with open(path) as f:
        return config_from_dict(json.load(f))


def save_config(cfg: SystemConfig, path) -> None:
    with open(path, "w") as f:
        json.dump(asdict(cfg), f, indent=2)
        f.write("\n")


# ---------------------------------------------------------------------------
# Built-in profiles

# The paper's node is a 10-core 40 Gcycles/s edge with a 54-core cloud behind
# a 20 Mbps link and 5000-slot episodes; desk is a two-queue node small enough
# for CI, its cycle demand at ~90% of joint capacity. Every profile has
# rho = 1e-9, V = 0 and nu = 1. Each app row is (w_i, lambda_i, d_min, d_max,
# name).
_PAPER_NODE = dict(edge_clock=40e9, edge_cores=10, bandwidth=20e6, cloud_cores=54,
                   episode_length=5000)
_DESK_NODE = dict(edge_clock=8e9, edge_cores=2, bandwidth=3e6, cloud_cores=4,
                  episode_length=500)
_APP_KEYS = ("workload_cycles_per_bit", "arrival_rate", "size_min", "size_max", "name")


def _description(node: dict, apps) -> dict:
    return dict(**node, rho=1e-9, penalty_weight=0.0, reward_exponent=1.0,
                apps=[dict(zip(_APP_KEYS, row)) for row in apps])


PROFILES = {
    # three AI application types on the paper's node
    "paper": _description(_PAPER_NODE, [
        (10435, 5.0, "40kB", "300kB", "speech"),
        (25346, 8.0, "4kB", "100kB", "nlp"),
        (45043, 4.0, "10kB", "100kB", "face"),
    ]),
    # eight application types (adds low-rate web/AR/VR traffic), same node
    "paper8": _description(_PAPER_NODE, [
        (10435, 0.5, "40kB", "300kB", "speech"),
        (25346, 0.8, "4kB", "100kB", "nlp"),
        (45043, 0.4, "10kB", "100kB", "face"),
        (8405, 10.0, "2B", "100B", "search"),
        (34252, 1.0, "2B", "5000B", "translate"),
        (54633, 0.1, "0.1MB", "3MB", "3dgame"),
        (40305, 0.1, "0.1MB", "3MB", "vr"),
        (34532, 0.1, "0.1MB", "3MB", "ar"),
    ]),
    "desk": _description(_DESK_NODE, [
        (8000, 5.5, "10kB", "50kB", "compress"),
        (20000, 4.4, "5kB", "25kB", "detect"),
    ]),
}


def get_profile(name: str) -> SystemConfig:
    """The built-in profile `name`, read as a config file is read."""
    try:
        description = PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}") from None
    return config_from_dict(description)
