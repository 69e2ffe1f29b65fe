"""Unsupervised class-incremental continual learning with cluster-derived
pseudo labels: clustering, exemplar replay, distillation and evaluation."""

from .config import RunConfig
from .data import BlobSpec, generate_gaussian_stream
from .protocol import run_experiment

__version__ = "0.1.0"
