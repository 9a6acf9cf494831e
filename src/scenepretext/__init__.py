"""Synthetic paired-scene generation and verified pretext-task objectives.

The package covers the full desk-scale pipeline: fit categorical
scene/object distributions, sample and realize paired scenes with recorded
transforms, simulate viewpoint occlusion, compute relaxed object-aware
point correspondences, and evaluate the contrastive and reconstruction
losses with analytic gradients checked against finite differences.
"""

from .catalog import (CategoryTable, SceneDistribution, fit_categorical,
                      fit_scene_distribution, load_default_scannet_parameters)
from .correspondence import (MatchSet, SeedSet, farthest_point_sample,
                             full_seed_pool, match_points, sample_seed_set)
from .decoder import (DecoderHeads, EncoderConfig, HeadsConfig,
                      PreparedPair, ReconstructionOutput, ToyEncoder,
                      build_targets, decode, forward_backward,
                      gradient_check, load_checkpoint, prepare_scene_pair,
                      save_checkpoint)
from .losses import LossReport, chamfer_distance
from .occlusion import OcclusionRecord, occlude_scene, replay_occlusion
from .pipeline import (PipelineConfig, PairManifest, evaluate_losses,
                       export_point_cloud, generate_dataset, load_pair,
                       load_point_cloud)
from .scenegen import (LayoutParams, ObjectInstance, SceneInstance,
                       ScenePair, SceneSpec, Transform, make_scene_pair,
                       realize_scene, sample_scene_spec)
from .assets import (CATEGORY_LABELS, DirectoryAssetSource,
                     ProceduralAssetSource, procedural_asset)
from .seeding import mix64

__version__ = "0.1.0"
