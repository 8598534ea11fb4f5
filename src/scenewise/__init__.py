"""Screenplay structure parsing, hierarchical scene encoders, and
unsupervised scene-descriptor trajectories."""

from .parser import Scene, Screenplay, parse_script
from .encoders import (
    EncoderKind,
    EncoderSpec,
    HierarchicalModel,
    Variant,
)
from .classifier import TagTaxonomy, TrainConfig, train
from .corpus import Corpus, IngestConfig, SynthSpec, generate_synthetic_corpus, ingest
from .descriptors import DescriptorConfig, train_descriptors
from .evaluation import micro_f1, similarity_f1

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "DescriptorConfig",
    "EncoderKind",
    "EncoderSpec",
    "HierarchicalModel",
    "IngestConfig",
    "Scene",
    "Screenplay",
    "SynthSpec",
    "TagTaxonomy",
    "TrainConfig",
    "Variant",
    "generate_synthetic_corpus",
    "ingest",
    "micro_f1",
    "parse_script",
    "similarity_f1",
    "train",
    "train_descriptors",
    "__version__",
]
