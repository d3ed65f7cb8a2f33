"""The paper's contribution: popularity grading and the three PPM models.

* :mod:`repro.core.popularity` — relative popularity and the log10 grade
  ladder of Section 3.1;
* :mod:`repro.core.node` — the Markov-prediction-tree node;
* :mod:`repro.core.base` — the shared model interface over the compact
  store and its compiled prediction table;
* :mod:`repro.core.standard` — the standard PPM baseline (Fig. 1 left);
* :mod:`repro.core.lrs` — the LRS-PPM baseline after Pitkow & Pirolli;
* :mod:`repro.core.pb` — popularity-based PPM, the paper's contribution
  (Fig. 1 right);
* :mod:`repro.core.prediction` — longest-match prediction through the
  compiled table, batch and incremental (:class:`PredictionCursor`);
* :mod:`repro.core.stats` — node counts, path enumeration, utilisation;
* :mod:`repro.core.extras` — related-work predictors used in ablations.
"""

from repro.core.popularity import PopularityTable, grade_of_relative_popularity
from repro.core.node import TrieNode
from repro.core.base import PPMModel
from repro.core.standard import StandardPPM
from repro.core.lrs import LRSPPM, mine_longest_repeating_subsequences
from repro.core.pb import PopularityBasedPPM
from repro.core.prediction import Prediction, PredictionCursor, clears_threshold
from repro.core.serialize import (
    dump_model,
    dumps_model,
    load_model,
    loads_model,
    read_model,
    save_model,
)
from repro.core.online import RollingModelManager, update_model
from repro.core.render import render_forest, render_model, render_node
from repro.core.evaluation import (
    PredictionQuality,
    compare_models,
    evaluate_predictions,
)
from repro.core.stats import (
    leaf_paths,
    max_depth,
    node_count,
    path_utilization,
    reset_usage,
)

__all__ = [
    "PopularityTable",
    "grade_of_relative_popularity",
    "TrieNode",
    "PPMModel",
    "StandardPPM",
    "LRSPPM",
    "mine_longest_repeating_subsequences",
    "PopularityBasedPPM",
    "Prediction",
    "PredictionCursor",
    "clears_threshold",
    "dump_model",
    "dumps_model",
    "load_model",
    "loads_model",
    "read_model",
    "save_model",
    "RollingModelManager",
    "update_model",
    "render_forest",
    "render_model",
    "render_node",
    "PredictionQuality",
    "compare_models",
    "evaluate_predictions",
    "leaf_paths",
    "max_depth",
    "node_count",
    "path_utilization",
    "reset_usage",
]
