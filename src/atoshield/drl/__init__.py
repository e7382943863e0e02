from .agents import (
    AgentConfig,
    CheckpointError,
    DdpgAgent,
    SacAgent,
    additional_actor_converged,
    critic_target,
    load_checkpoint,
    save_checkpoint,
    update_actor,
    update_additional_actor,
    update_critic,
    update_sac,
)
from .buffers import EliteBuffer, ReplayBuffer, Trajectory
from .nets import Adam, Mlp, soft_update
from .noise import NoiseProcess, act, act_with_noise

__all__ = [
    "AgentConfig",
    "Adam",
    "CheckpointError",
    "DdpgAgent",
    "EliteBuffer",
    "Mlp",
    "NoiseProcess",
    "ReplayBuffer",
    "SacAgent",
    "Trajectory",
    "act",
    "act_with_noise",
    "additional_actor_converged",
    "critic_target",
    "load_checkpoint",
    "save_checkpoint",
    "soft_update",
    "update_actor",
    "update_additional_actor",
    "update_critic",
    "update_sac",
]
