"""dhtfed: deterministic DHT-tree federated fine-tuning simulator."""

from .overlay import (Overlay, RouteResult, circular_distance, hex_id,
                      id_from_name, random_ids, shared_prefix_len)
from .simnet import LinkModel, Simulator
from .tree import TreeConfig, TreeManager, TreeMembership
from .model import (LocalDataset, ModelParams, forward_batch, local_finetune,
                    pfl_grad, pfl_loss)
from .fedagg import (AggregateMessage, FederatedSession, ModeSelector,
                     RoundConfig, SocialGraph, branch_aggregate, root_update)
from .harness import (MetricsRecord, Scenario, ScenarioConfig, TopicSpec, compute_f1,
                      generate_topic_data, measure_dissemination, run_scenario)

__version__ = "0.1.0"
