"""Desk-scale unsupervised multi-camera person re-identification.

The package builds a representation for matching detections of the same
identity across cameras without any identity labels: contrastive instance
discrimination bootstraps an embedding, mutual-nearest-neighbor mining turns
per-camera streams into tracklet segments, segment discrimination retrains
on those segments, and a camera-subspace reduction strips the embedding
directions that predict the recording camera.  Everything runs against a
synthetic multi-camera benchmark whose ground truth stays hidden from the
training path.
"""

from .ccr import apply_ccr, build_projector, fit_camera_classifier, nullification_check
from .contrastive import ContrastiveConfig, MemoryBank, cid_epoch, info_nce, tsd_epoch
from .encoder import EncoderPair, cosine_lr, forward, init_encoder, momentum_update
from .errors import (
    CamreidError,
    DegenerateInputError,
    InvalidInputError,
    ManifestError,
    TrainingDivergenceError,
)
from .evaluation import EvalProtocol, EvalReport, evaluate
from .pipeline import PipelineConfig, build_benchmark, run_pipeline, run_steps_ablation
from .synth import StreamConfig, generate_world, simulate_stream, split_eval
from .tracklet import assemble_segments, filter_segments, mutual_matches, segment_purity, segment_stats

__version__ = "0.1.0"
