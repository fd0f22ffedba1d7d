"""Edge-cloud multi-queue control toolkit: a queueing MDP with cubic power
costs, the drift-plus-penalty baseline, a family of stability-shaped rewards
with checkable identities, and a compact soft actor-critic. The command line
is `lyaq.cli`; the names below are the ones scripts reach as `lyaq.<name>`."""

from .config import get_profile, save_config
from .env import Action
from .sac import SacAgent, SacConfig

__version__ = "0.1.0"
