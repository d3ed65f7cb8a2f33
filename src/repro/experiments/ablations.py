"""Ablations of the design choices DESIGN.md calls out.

These go beyond the paper's own evaluation: each ablation isolates one
design decision of the popularity-based model (or of our reproduction) and
measures its effect on the paper's metrics.

* **A1 prediction threshold** — the paper fixes 0.25 for every model.
* **A2 grade-height mapping** — the paper fixes 7/5/3/1.
* **A3 pruning** — the paper reports relative-probability cuts of 5-10 %
  plus an absolute count-1 cut on some traces.
* **A4 PPM escape** — the paper's models predict from the longest matching
  context only; compression-style PPM falls back to shorter contexts.
* **A5 related-work baselines** — first-order Markov (Padmanabhan & Mogul)
  and Top-10 push (Markatos & Chronaki) from Section 6.
"""

from __future__ import annotations

from repro.core.pb import PopularityBasedPPM
from repro.kernel.prune import (
    prune_compact_by_absolute_count,
    prune_compact_by_relative_probability,
)
from repro.experiments.lab import DEFAULT_SEED, get_lab
from repro.experiments.result import ExperimentResult


def ablation_thresholds(
    *,
    profile: str = "nasa-like",
    train_days: int = 5,
    thresholds: tuple[float, ...] = (0.05, 0.125, 0.25, 0.5, 0.75),
    seed: int = DEFAULT_SEED,
    scale: float | None = None,
) -> ExperimentResult:
    """A1: sweep the prediction-probability threshold for all three models."""
    lab = get_lab(profile, train_days + 1, seed=seed, scale=scale)
    result = ExperimentResult(
        experiment_id="ablation-thresholds",
        title=f"Ablation A1 — prediction-probability threshold sweep, {profile}",
        columns=[
            "threshold",
            "model",
            "hit_ratio",
            "traffic_increment",
            "prefetch_accuracy",
        ],
        notes="The paper fixes 0.25; lower thresholds trade traffic for hits.",
    )
    for threshold in thresholds:
        for model_key in ("pb", "standard", "lrs"):
            run = lab.run(model_key, train_days, threshold=threshold)
            result.add_row(
                threshold=threshold,
                model=model_key,
                hit_ratio=run.hit_ratio,
                traffic_increment=run.traffic_increment,
                prefetch_accuracy=run.prefetch_accuracy,
            )
    return result


#: Grade->height mappings for A2 (grade 0 first, like params.GRADE_HEIGHTS).
HEIGHT_MAPPINGS: tuple[tuple[int, int, int, int], ...] = (
    (1, 1, 1, 1),
    (1, 2, 3, 4),
    (1, 3, 5, 7),  # the paper's mapping
    (2, 4, 6, 8),
    (3, 5, 7, 9),
    (7, 7, 7, 7),
)


def ablation_heights(
    *,
    profile: str = "nasa-like",
    train_days: int = 5,
    mappings: tuple[tuple[int, int, int, int], ...] = HEIGHT_MAPPINGS,
    seed: int = DEFAULT_SEED,
    scale: float | None = None,
) -> ExperimentResult:
    """A2: sweep the grade->height mapping of PB-PPM."""
    lab = get_lab(profile, train_days + 1, seed=seed, scale=scale)
    split = lab.split(train_days)
    popularity = lab.popularity(train_days)
    result = ExperimentResult(
        experiment_id="ablation-heights",
        title=f"Ablation A2 — PB-PPM grade-height mappings, {profile}",
        columns=["heights", "node_count", "hit_ratio", "traffic_increment"],
        notes=(
            "The paper uses 7/5/3/1 (grades 3/2/1/0).  Flat mappings either "
            "waste space (all-7) or forfeit popular-branch depth (all-1)."
        ),
    )
    from repro.sim.engine import PrefetchSimulator

    for mapping in mappings:
        model = PopularityBasedPPM(popularity, grade_heights=mapping)
        model.fit(split.train_sessions)
        simulator = PrefetchSimulator(
            model,
            lab.url_sizes,
            lab.latency(train_days),
            lab.config_for("pb"),
            popularity=popularity,
        )
        run = simulator.run(split.test_requests, client_kinds=lab.client_kinds)
        result.add_row(
            heights="/".join(str(h) for h in reversed(mapping)),
            node_count=model.node_count,
            hit_ratio=run.hit_ratio,
            traffic_increment=run.traffic_increment,
        )
    return result


def ablation_pruning(
    *,
    profile: str = "nasa-like",
    train_days: int = 5,
    cutoffs: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15),
    seed: int = DEFAULT_SEED,
    scale: float | None = None,
) -> ExperimentResult:
    """A3: sweep PB-PPM's space-optimisation passes.

    For each relative-probability cut-off, with and without the absolute
    count-1 pass, the experiment reports the node count and the resulting
    hit ratio, quantifying the space/accuracy trade the paper describes
    in Section 3.4.
    """
    lab = get_lab(profile, train_days + 1, seed=seed, scale=scale)
    split = lab.split(train_days)
    popularity = lab.popularity(train_days)
    result = ExperimentResult(
        experiment_id="ablation-pruning",
        title=f"Ablation A3 — PB-PPM space-optimisation sweep, {profile}",
        columns=[
            "relative_cutoff",
            "absolute_pass",
            "node_count",
            "removed_relative",
            "removed_absolute",
            "hit_ratio",
        ],
        notes=(
            "Paper: 5-10% relative cuts; the absolute count-1 cut is applied "
            "on some traces (e.g. UCB-CS)."
        ),
    )
    from repro.sim.engine import PrefetchSimulator

    for cutoff in cutoffs:
        for absolute in (False, True):
            model = PopularityBasedPPM(
                popularity,
                prune_relative_probability=None,
                prune_absolute_count=None,
            )
            model.fit(split.train_sessions)
            store = model._store
            removed_rel = (
                prune_compact_by_relative_probability(store, cutoff=cutoff)
                if cutoff > 0
                else 0
            )
            removed_abs = (
                prune_compact_by_absolute_count(store, max_count=1)
                if absolute
                else 0
            )
            # The passes leave garbage slots; densify before predicting.
            model._store = store.compacted()
            model._mutations += 1
            simulator = PrefetchSimulator(
                model,
                lab.url_sizes,
                lab.latency(train_days),
                lab.config_for("pb"),
                popularity=popularity,
            )
            run = simulator.run(
                split.test_requests, client_kinds=lab.client_kinds
            )
            result.add_row(
                relative_cutoff=cutoff,
                absolute_pass=absolute,
                node_count=model.node_count,
                removed_relative=removed_rel,
                removed_absolute=removed_abs,
                hit_ratio=run.hit_ratio,
            )
    return result


def ablation_escape(
    *,
    profile: str = "nasa-like",
    train_days: int = 5,
    seed: int = DEFAULT_SEED,
    scale: float | None = None,
) -> ExperimentResult:
    """A4: longest-match-only (paper) versus compression-style PPM escape."""
    lab = get_lab(profile, train_days + 1, seed=seed, scale=scale)
    result = ExperimentResult(
        experiment_id="ablation-escape",
        title=f"Ablation A4 — PPM escape fallback on/off, {profile}",
        columns=["model", "escape", "hit_ratio", "traffic_increment"],
        notes=(
            "The paper's models predict from the longest matching context "
            "only; escape falls back to shorter contexts when nothing "
            "qualifies."
        ),
    )
    for model_key in ("standard", "lrs"):
        for escape in (False, True):
            run = lab.run(model_key, train_days, escape=escape)
            result.add_row(
                model=model_key,
                escape=escape,
                hit_ratio=run.hit_ratio,
                traffic_increment=run.traffic_increment,
            )
    return result


def ablation_baselines(
    *,
    profile: str = "nasa-like",
    train_days: int = 5,
    seed: int = DEFAULT_SEED,
    scale: float | None = None,
) -> ExperimentResult:
    """A5: related-work baselines from Section 6 against the paper's three."""
    lab = get_lab(profile, train_days + 1, seed=seed, scale=scale)
    result = ExperimentResult(
        experiment_id="ablation-baselines",
        title=f"Ablation A5 — related-work baselines, {profile}",
        columns=[
            "model",
            "hit_ratio",
            "latency_reduction",
            "traffic_increment",
            "node_count",
        ],
        notes=(
            "markov1 is the order-1 predictor of Padmanabhan & Mogul; top10 "
            "is Markatos & Chronaki's popularity push (threshold 0 would be "
            "its native mode; it runs under the shared 0.25 here)."
        ),
    )
    for model_key in ("pb", "standard", "lrs", "markov1", "top10"):
        run = lab.run(model_key, train_days)
        result.add_row(
            model=model_key,
            hit_ratio=run.hit_ratio,
            latency_reduction=run.latency_reduction,
            traffic_increment=run.traffic_increment,
            node_count=run.node_count,
        )
    return result
