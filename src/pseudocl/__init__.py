"""Unsupervised class-incremental continual learning with cluster-derived
pseudo labels: clustering, exemplar replay, distillation and evaluation."""

from .clustering import ClusterResult, PcaBasis, kmeans, pca_fit, pca_project
from .config import RunConfig, load_config
from .data import BlobSpec, Dataset, generate_gaussian_stream, load_dataset, save_dataset
from .labeling import ExemplarStore, assign_pseudo_labels, merge_replay, \
    select_exemplars_herding, select_exemplars_random
from .metrics import StepReport, ari, cluster_accuracy, hungarian, nmi
from .nn import Model, backward, expand_head, extract_features, forward, \
    init_model, sgd_step, softened_probs, weight_align
from .protocol import TaskStream, continual_step, run_experiment, run_sweep, \
    split_tasks, train_first_task

__version__ = "0.1.0"
