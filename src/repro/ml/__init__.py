"""From-scratch ML substrate: trees, ensembles and SMOTE."""

from .base import BaseClassifier, NotFittedError
from .tree import (
    LEAF,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    FlatTree,
)
from .forest import RandomForestClassifier
from .adaboost import AdaBoostClassifier
from .gradient_boosting import GradientBoostingClassifier
from .smote import Smote

__all__ = [
    "BaseClassifier",
    "NotFittedError",
    "LEAF",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "FlatTree",
    "RandomForestClassifier",
    "AdaBoostClassifier",
    "GradientBoostingClassifier",
    "Smote",
]
