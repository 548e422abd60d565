"""Numpy deep learning substrate.

The paper's evaluation runs on Caffe; this subpackage is the from-scratch
substitute.  It provides everything PAS, DLV, and DQL need from a training
system: layer implementations, DAG-structured networks with a mutation API,
a checkpointing trainer, synthetic datasets, a model zoo mirroring the
architectures of Table I, and an interval-arithmetic forward pass used by
progressive query evaluation.
"""

from repro.dnn.augment import AugmentConfig, Augmenter
from repro.dnn.interval import Interval
from repro.dnn.layers import (
    Add,
    AvgPool2D,
    BatchNorm,
    Concat,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
)
from repro.dnn.network import Network, NetworkNode
from repro.dnn.training import (
    SGDConfig,
    TrainResult,
    Trainer,
    accuracy,
    confusion_matrix,
    per_class_accuracy,
    top_k_accuracy,
)
from repro.dnn.data import Dataset, synthetic_digits, synthetic_faces
from repro.dnn.zoo import (
    ZOO_ARCHITECTURES,
    alexnet_mini,
    build_model,
    lenet,
    resnet_mini,
    resnet_residual,
    tiny_mlp,
    vgg_mini,
)

__all__ = [
    "Add",
    "AugmentConfig",
    "Augmenter",
    "AvgPool2D",
    "BatchNorm",
    "Concat",
    "Conv2D",
    "Dataset",
    "Dense",
    "Dropout",
    "Flatten",
    "Interval",
    "Layer",
    "LocalResponseNorm",
    "MaxPool2D",
    "Network",
    "NetworkNode",
    "ReLU",
    "SGDConfig",
    "Sigmoid",
    "Softmax",
    "Tanh",
    "TrainResult",
    "Trainer",
    "ZOO_ARCHITECTURES",
    "accuracy",
    "alexnet_mini",
    "build_model",
    "confusion_matrix",
    "lenet",
    "per_class_accuracy",
    "resnet_mini",
    "resnet_residual",
    "synthetic_digits",
    "synthetic_faces",
    "tiny_mlp",
    "top_k_accuracy",
    "vgg_mini",
]
