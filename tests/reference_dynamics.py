"""The per-slot laws of the edge-cloud MDP, one pure function each.

`EdgeCloudEnv.step` fuses them into one slot; tests check it, and the
observations built from it, against these functions bit for bit.
"""

import numpy as np

from lyaq.config import SystemConfig
from lyaq.env import Action


def compute_departure(action: Action, cfg: SystemConfig) -> np.ndarray:
    """b_i = alpha_i f_E / w_i + beta_i B for the N real queues."""
    return action.alpha_eff * cfg.edge_clock / cfg.workloads + action.beta_eff * cfg.bandwidth


def compute_offload(queue_plus_arrival, action: Action, cfg: SystemConfig) -> np.ndarray:
    """Bits actually shipped to the cloud: the bandwidth allocation capped by
    whatever backlog the CPU leaves behind, never negative."""
    qpa = np.asarray(queue_plus_arrival, dtype=float)
    cpu_bits = action.alpha_eff * cfg.edge_clock / cfg.workloads
    return np.maximum(0.0, np.minimum(action.beta_eff * cfg.bandwidth, qpa - cpu_bits))


def queue_update(q, a, b) -> np.ndarray:
    """q_i(t+1) = max(0, q_i + a_i - b_i)."""
    return np.maximum(0.0, np.asarray(q, dtype=float) + np.asarray(a, dtype=float)
                      - np.asarray(b, dtype=float))


def actual_cpu_use(queue_plus_arrival, action: Action, cfg: SystemConfig) -> np.ndarray:
    """Realized CPU fraction: alpha_i capped when the backlog is smaller than
    the nominal allocation alpha_i f_E / w_i."""
    qpa = np.asarray(queue_plus_arrival, dtype=float)
    return np.minimum(action.alpha_eff, cfg.workloads * qpa / cfg.edge_clock)
