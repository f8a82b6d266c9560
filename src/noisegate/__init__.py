"""Partitioned ensemble classification with one-class SVM noise filtering.

Pipeline: parse, scale, partition, filter each partition with a one-class
SVM whose removal fraction minimizes a clean/noisy impurity ratio, boost a
weak learner on each cleaned partition, and combine partitions by
accuracy-weighted voting.
"""

from .data import parse_libsvm, partition
from .ensemble import LearnerConfig, adaboost_train, compute_beta
from .noise_filter import filter_partition
from .pipeline import RunConfig, gini_scan, run_training

__version__ = "0.1.0"
