"""From-scratch ML substrate: trees, ensembles, SMOTE, metrics, selection."""

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
from .scaling import StandardScaler
from .metrics import (
    accuracy_score,
    classification_report,
    confusion_matrix,
    f1_score,
    precision_score,
    recall_score,
    roc_auc_score,
)
from .model_selection import cross_val_score, stratified_k_fold, train_test_split

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
    "StandardScaler",
    "accuracy_score",
    "classification_report",
    "confusion_matrix",
    "f1_score",
    "precision_score",
    "recall_score",
    "roc_auc_score",
    "cross_val_score",
    "stratified_k_fold",
    "train_test_split",
]
