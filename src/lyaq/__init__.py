"""Edge-cloud multi-queue control toolkit: a queueing MDP with cubic power
costs, the drift-plus-penalty baseline, a family of stability-shaped rewards
with checkable identities, and a compact soft actor-critic."""

from .config import (AppProfile, SystemConfig, FeasibilityReport,
                     validate_config, feasibility_check, load_config,
                     save_config, get_profile, three_app_config,
                     eight_app_config, desk_config)
from .traffic import sample_task_size, sample_task_sizes, sample_arrivals
from .env import (Action, StateVector, StepOutcome, EdgeCloudEnv,
                  Trace, compute_departure, compute_offload, queue_update,
                  edge_cost, cloud_cost)
from .rewards import (RewardSpec, reward_power, reward_reshaped, reward_diff,
                      reward_mean_diff, compute_reward, StabilityBound,
                      power_reward_bound, check_theorem1_conditions,
                      episode_reward_identities, UnsupportedRewardError)
from .dpp import (DppConfig, DppController, dpp_objective, dpp_step_optimize,
                  project_simplex, UnsupportedObjectiveError)
from .nets import DenseNet, Adam, soft_update
from .sac import SacAgent, SacConfig, ReplayBuffer, StateNormalizer
from .harness import (evaluate, train, sweep, compare, run_episode,
                      metrics_from_trace, queue_slope_ok, default_reward_spec,
                      RunRecord, TrainResult)
from .plots import emit_plots

__version__ = "0.1.0"
