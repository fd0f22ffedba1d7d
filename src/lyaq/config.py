"""System configuration, application profiles, and feasibility arithmetic.

Units: task sizes and queue lengths in bits, clock rates in cycles/s,
bandwidth in bits/s. One slot is one second, so per-slot and per-second
rates coincide. Size suffix convention follows the usual storage units:
1 kB = 8*1024 bits, 1 MB = 8*1024*1024 bits.

Power costs are in kappa*(Gcycles/s)^3 units. The constant kappa itself is
not modelled: it would only rescale the penalty weight V. The learner's
discount factor gamma is `SacConfig.discount`, not part of the system.
`config_from_dict` ignores keys that are not fields, such as the `kappa`,
`discount` and `n_queues` keys that configs written by earlier versions hold:
the number of queues is the number of apps.
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import cached_property

import numpy as np

BITS_PER_BYTE = 8.0
BITS_PER_KB = 8.0 * 1024
BITS_PER_MB = 8.0 * 1024 * 1024
GIGA = 1e9

CLOUD_COST_KINDS = ("cubic", "per-core")


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
    """One application type: workload density and its task-arrival statistics."""

    workload_cycles_per_bit: float  # w_i, cycles needed per task bit
    arrival_rate: float             # lambda_i, task arrivals per slot
    size_min: float                 # d_min, bits
    size_max: float                 # d_max, bits
    size_mean: float                # mu_i, bits
    size_std: float                 # sigma_i, bits
    name: str = ""

    @classmethod
    def from_bounds(cls, workload_cycles_per_bit, arrival_rate, size_min,
                    size_max, name=""):
        """Build a profile with mean at the centre of the size bounds and a
        quarter-range spread, the convention behind every tabulated profile."""
        size_min = parse_size(size_min)
        size_max = parse_size(size_max)
        return cls(
            workload_cycles_per_bit=float(workload_cycles_per_bit),
            arrival_rate=float(arrival_rate),
            size_min=size_min,
            size_max=size_max,
            size_mean=(size_max + size_min) / 2.0,
            size_std=(size_max - size_min) / 4.0,
            name=name,
        )

    @property
    def mean_bits_per_slot(self) -> float:
        """m_i = lambda_i * mu_i, the mean arriving bits per slot."""
        return self.arrival_rate * self.size_mean

    @property
    def mean_cycles_per_slot(self) -> float:
        """lambda_i * mu_i * w_i, the mean cycle demand per slot."""
        return self.mean_bits_per_slot * self.workload_cycles_per_bit


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


def validate_config(cfg: SystemConfig) -> list[str]:
    """Return every violated invariant as a message; empty list means ok."""
    named = [(f.name, f.type, getattr(cfg, f.name)) for f in fields(cfg)]
    named += [(f"{app.name or f'app {i}'}: {f.name}", f.type, getattr(app, f.name))
              for i, app in enumerate(cfg.apps) for f in fields(app)]
    errors = [f"{name} {value} is not a whole number" for name, kind, value in named
              if kind == "int" and not isinstance(value, numbers.Integral)]
    errors += [f"{name} {value} not finite" for name, kind, value in named
               if kind != "int" and isinstance(value, float) and not math.isfinite(value)]
    if not cfg.apps:
        errors.append("apps is empty: there is no queue")
    if cfg.edge_clock <= 0:
        errors.append(f"edge_clock {cfg.edge_clock} <= 0")
    if cfg.edge_cores < 1:
        errors.append(f"edge_cores {cfg.edge_cores} < 1")
    if cfg.bandwidth <= 0:
        errors.append(f"bandwidth {cfg.bandwidth} <= 0")
    if cfg.cloud_cores < 0:
        errors.append(f"cloud_cores {cfg.cloud_cores} < 0")
    elif cfg.cloud_cost_kind == "cubic" and cfg.cloud_cores < 1:
        errors.append(f"cloud_cores {cfg.cloud_cores} < 1 under the cubic cloud "
                      "cost, which would charge infinity for every offloaded bit")
    if cfg.cloud_core_clock <= 0:
        errors.append(f"cloud_core_clock {cfg.cloud_core_clock} <= 0")
    if cfg.rho <= 0:
        errors.append(f"rho {cfg.rho} <= 0")
    if cfg.penalty_weight < 0:
        errors.append(f"penalty_weight {cfg.penalty_weight} < 0")
    if cfg.reward_exponent < 1:
        errors.append(f"reward_exponent {cfg.reward_exponent} < 1")
    if cfg.episode_length < 1:
        errors.append(f"episode_length {cfg.episode_length} < 1")
    if cfg.cloud_cost_kind not in CLOUD_COST_KINDS:
        errors.append(f"cloud_cost_kind {cfg.cloud_cost_kind!r} not in {CLOUD_COST_KINDS}")
    for i, app in enumerate(cfg.apps):
        tag = app.name or f"app {i}"
        if app.workload_cycles_per_bit <= 0:
            errors.append(f"{tag}: workload_cycles_per_bit {app.workload_cycles_per_bit} <= 0")
        if app.arrival_rate <= 0:
            errors.append(f"{tag}: arrival_rate {app.arrival_rate} <= 0")
        if not (0 < app.size_min < app.size_max):
            errors.append(f"{tag}: size bounds ({app.size_min}, {app.size_max}) invalid")
        if not (app.size_min <= app.size_mean <= app.size_max):
            errors.append(f"{tag}: size_mean {app.size_mean} outside bounds")
        if app.size_std <= 0:
            errors.append(f"{tag}: size_std {app.size_std} <= 0")
    return errors


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
    float, which validate_config refuses."""
    x = float(value)
    return int(x) if x.is_integer() else x


def _parsed(cls, d: dict) -> dict:
    """The fields of dataclass cls that d holds, each read by its type: a
    whole number for an int, a size for a size_* field, a float for any
    other float; other values pass as they are. Other keys are ignored."""
    out = {}
    for f in fields(cls):
        if f.name in d:
            value = d[f.name]
            if f.type == "int":
                value = _whole(value)
            elif f.name.startswith("size_"):
                value = parse_size(value)
            elif f.type == "float":
                value = float(value)
            out[f.name] = value
    return out


def config_from_dict(d: dict) -> SystemConfig:
    """Inverse of `dataclasses.asdict` on a SystemConfig. The required keys
    are the SystemConfig fields without a default and, per app, the
    arguments of AppProfile.from_bounds, whose rule fills a missing size_mean
    or size_std. A ValueError names every missing required key, the apps'
    keys as apps[i].key."""
    app_keys = [p.name for p in inspect.signature(AppProfile.from_bounds).parameters.values()
                if p.default is p.empty]
    missing = [f.name for f in fields(SystemConfig) if f.default is MISSING and f.name not in d]
    missing += [f"apps[{i}].{k}" for i, entry in enumerate(d.get("apps", ()))
                for k in app_keys if k not in entry]
    if missing:
        raise ValueError(f"config lacks required key(s): {', '.join(missing)}")
    apps = []
    for entry in d["apps"]:
        given = _parsed(AppProfile, entry)
        app = AppProfile.from_bounds(**{k: given[k] for k in app_keys})
        apps.append(replace(app, **given))
    return SystemConfig(**{**_parsed(SystemConfig, d), "apps": tuple(apps)})


def load_config(path) -> SystemConfig:
    with open(path) as f:
        return config_from_dict(json.load(f))


def save_config(cfg: SystemConfig, path) -> None:
    with open(path, "w") as f:
        json.dump(asdict(cfg), f, indent=2)
        f.write("\n")


# ---------------------------------------------------------------------------
# Built-in profiles

# the paper's node: a 10-core 40 Gcycles/s edge with a 54-core cloud behind a
# 20 Mbps link, and 5000-slot episodes
_PAPER_NODE = dict(edge_clock=40e9, edge_cores=10, bandwidth=20e6, cloud_cores=54,
                   episode_length=5000)


def _profile(apps, **node) -> SystemConfig:
    """A built-in profile: one queue per app on `node`, rho = 1e-9, V = 0 and
    nu = 1."""
    return SystemConfig(rho=1e-9, penalty_weight=0.0, reward_exponent=1.0,
                        apps=apps, **node)


def three_app_config() -> SystemConfig:
    """Three AI application types on the paper's node."""
    return _profile((
        AppProfile.from_bounds(10435, 5.0, "40kB", "300kB", name="speech"),
        AppProfile.from_bounds(25346, 8.0, "4kB", "100kB", name="nlp"),
        AppProfile.from_bounds(45043, 4.0, "10kB", "100kB", name="face"),
    ), **_PAPER_NODE)


def eight_app_config() -> SystemConfig:
    """Eight application types (adds low-rate web/AR/VR traffic), same node."""
    return _profile((
        AppProfile.from_bounds(10435, 0.5, "40kB", "300kB", name="speech"),
        AppProfile.from_bounds(25346, 0.8, "4kB", "100kB", name="nlp"),
        AppProfile.from_bounds(45043, 0.4, "10kB", "100kB", name="face"),
        AppProfile.from_bounds(8405, 10.0, "2B", "100B", name="search"),
        AppProfile.from_bounds(34252, 1.0, "2B", "5000B", name="translate"),
        AppProfile.from_bounds(54633, 0.1, "0.1MB", "3MB", name="3dgame"),
        AppProfile.from_bounds(40305, 0.1, "0.1MB", "3MB", name="vr"),
        AppProfile.from_bounds(34532, 0.1, "0.1MB", "3MB", name="ar"),
    ), **_PAPER_NODE)


def desk_config() -> SystemConfig:
    """Two-queue configuration small enough for CI: 2-core 8 Gcycles/s edge,
    4-core cloud, cycle demand at ~90% of joint capacity."""
    return _profile((
        AppProfile.from_bounds(8000, 5.5, "10kB", "50kB", name="compress"),
        AppProfile.from_bounds(20000, 4.4, "5kB", "25kB", name="detect"),
    ), edge_clock=8e9, edge_cores=2, bandwidth=3e6, cloud_cores=4,
        episode_length=500)


PROFILES = {
    "paper": three_app_config,
    "paper8": eight_app_config,
    "desk": desk_config,
}


def get_profile(name: str) -> SystemConfig:
    try:
        builder = PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}") from None
    return builder()
