"""planarmimic: adversarial imitation of rough base-only demonstrations on a
planar legged robot, with a DTW fidelity metric."""

__version__ = "0.1.0"

from .core import (BatchWindowBuffer, ReferenceDataset, load_reference_dataset,
                   phi_extract_arrays, sample_reference_windows,
                   save_reference_csv)
from .discriminator import (DiscriminatorConfig, build_discriminator,
                            discriminator_loss, raw_score)
from .dtw import DtwConfig, dtw_brute_force, dtw_distance, dtw_distances
from .nets import MlpNet, OptimizerState, optimizer_step
from .ppo import (GaussianPolicy, PpoConfig, RolloutBuffer, RolloutCollector,
                  adaptive_lr, gae_advantages, ppo_update)
from .rewards import (ImitationReward, RewardWeights,
                      handcrafted_backflip_reward, handcrafted_standup_reward,
                      regularization_reward, termination_penalty,
                      total_reward)
from .sim import PlanarEnv, SimParams, generate_demo_set, generate_rough_demo
