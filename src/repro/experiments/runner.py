"""Shared machinery: method factory, repeated-run evaluation, trial parallelism.

Repeated trials are embarrassingly parallel: every restart gets its own seed
up front (one draw per restart, in restart order, so the seed sequence — and
therefore every score — is identical for any ``n_jobs``), and
:func:`map_trials` fans the trial closures out over a process pool when
``n_jobs > 1``.  The Table III / Fig. 4-6 drivers all route their restarts
through this module.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

import numpy as np

from repro.core.base import BaseClusterer
from repro.data.dataset import CategoricalDataset
from repro.experiments.config import ExperimentConfig
from repro.metrics import INDEX_NAMES, evaluate_clustering
from repro.registry import make_clusterer, resolve_name
from repro.utils.rng import ensure_rng

T = TypeVar("T")

#: Method names in the paper's Table III column order.
METHOD_NAMES = (
    "K-MODES",
    "ROCK",
    "WOCIL",
    "FKMAWCW",
    "GUDMM",
    "ADC",
    "MCDC",
    "MCDC+G.",
    "MCDC+F.",
)

#: Paper hyper-parameters of each Table III method, keyed by the canonical
#: registry name (the paper's column names resolve to these via aliases).
#: ``learning_rate`` entries of ``None`` are filled from the experiment
#: config at construction time.
PAPER_METHOD_PARAMS: Dict[str, Dict[str, Any]] = {
    "kmodes": {"n_init": 5},
    "rock": {},
    "wocil": {},
    "fkmawcw": {"n_init": 3},
    "gudmm": {"n_init": 3},
    "adc": {"n_init": 3},
    "mcdc": {"learning_rate": None, "n_init": 5},
    "mcdc+gudmm": {"learning_rate": None, "final_n_init": 3},
    "mcdc+fkmawcw": {"learning_rate": None, "final_n_init": 3},
}


def method_names() -> List[str]:
    """The nine compared methods, in the paper's column order."""
    return list(METHOD_NAMES)


#: Canonical names of the methods with a sharded variant: these are the ones
#: a ``config.backend`` routes through the transport registry (the composites
#: shard their MGCPL encoder; the final baseline stage is inherently serial).
SHARDED_CAPABLE = ("mcdc", "mcdc+gudmm", "mcdc+fkmawcw")


def route_through_backend(
    name: str, config: Optional[ExperimentConfig] = None
) -> tuple:
    """Resolve ``name`` and apply ``config.backend`` if the method shards.

    Returns ``(canonical_name, extra_params)``: the registry name to
    construct (``"mcdc"`` becomes ``"mcdc@sharded"`` when a backend is set)
    and the ``backend=``/``hosts=`` parameters to pass.  Methods without a
    sharded variant come back untouched — every experiment driver that honours
    ``--backend`` (table3, fig4, fig6) routes through this one helper, so the
    registry is bypassed nowhere.
    """
    canonical = resolve_name(name)
    backend = getattr(config, "backend", None) if config is not None else None
    extra: Dict[str, Any] = {}
    if backend is not None and canonical in SHARDED_CAPABLE:
        extra["backend"] = backend
        hosts = tuple(getattr(config, "hosts", ()) or ())
        if hosts:
            extra["hosts"] = list(hosts)
        backend_options = dict(getattr(config, "backend_options", ()) or ())
        if backend_options:
            extra["backend_options"] = backend_options
        if canonical == "mcdc":
            canonical = "mcdc@sharded"
    return canonical, extra


def make_paper_method(
    name: str, n_clusters: int, seed: int, config: Optional[ExperimentConfig] = None
) -> BaseClusterer:
    """Instantiate one of the compared methods with the paper's hyper-parameters.

    ``name`` is resolved through the clusterer registry, so both the paper's
    Table III column names (``"MCDC+G."``) and the canonical registry names
    (``"mcdc+gudmm"``) work.  ``MCDC+G.`` and ``MCDC+F.`` are MCDC variants
    whose final clustering stage is GUDMM / FKMAWCW applied to the MGCPL
    encoding (paper Sec. IV-A).
    """
    canonical = resolve_name(name)
    if canonical not in PAPER_METHOD_PARAMS:
        raise ValueError(
            f"{name!r} is not one of the paper's compared methods "
            f"({', '.join(METHOD_NAMES)}); use repro.registry.make_clusterer "
            "to construct it with explicit parameters"
        )
    params = dict(PAPER_METHOD_PARAMS[canonical])
    if params.get("learning_rate", 0.0) is None:
        params["learning_rate"] = config.learning_rate if config is not None else 0.03
    # `repro run --backend ...`: route the MCDC family through the sharded
    # runtime.  The learning dynamics are shared code, so scores match the
    # serial estimators up to MGCPL's floating-point regrouping.  Methods
    # without a sharded variant are untouched — the CLI prints a note saying
    # so.
    canonical, extra = route_through_backend(canonical, config)
    params.update(extra)
    return make_clusterer(canonical, n_clusters=n_clusters, random_state=seed, **params)


def map_trials(trial: Callable[..., T], items: Sequence, n_jobs: int = 1) -> List[T]:
    """Run ``trial(item)`` for every item, serially or over a process pool.

    The unit of parallelism is whatever the driver iterates — a seed per
    restart, a data-set name, a sweep point.  The trial callable must be
    picklable (a module-level function or a :func:`functools.partial` over
    one).  Results come back in item order regardless of scheduling, so
    parallel and serial runs are indistinguishable to the caller.  Trials
    here run for seconds to minutes, so the per-call pool start-up and
    per-item pickling of the bound arguments are noise by comparison.
    """
    n_jobs = int(n_jobs or 1)
    if n_jobs <= 1 or len(items) <= 1:
        return [trial(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(n_jobs, len(items))) as pool:
        return list(pool.map(trial, items))


def draw_trial_seeds(random_state: int, n_restarts: int) -> List[int]:
    """Per-restart seeds, drawn up front so results do not depend on ``n_jobs``."""
    rng = ensure_rng(random_state)
    return [int(rng.integers(0, 2**31 - 1)) for _ in range(n_restarts)]


def _score_trial(
    seed: int,
    method_name: str,
    dataset: CategoricalDataset,
    n_clusters: int,
    config: Optional[ExperimentConfig],
) -> Dict[str, float]:
    """One restart: fit the method and evaluate the four validity indices.

    A run that raises is recorded as all-zero scores — the same convention
    the paper uses for methods "judged as failed" on a data set.
    """
    method = make_paper_method(method_name, n_clusters, seed, config)
    try:
        labels = method.fit_predict(dataset)
        return evaluate_clustering(dataset.labels, labels)
    except Exception:
        return {index: 0.0 for index in INDEX_NAMES}


def run_method_on_dataset(
    method_name: str,
    dataset: CategoricalDataset,
    n_restarts: int,
    random_state: int,
    config: Optional[ExperimentConfig] = None,
    n_jobs: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Run one method ``n_restarts`` times and aggregate the four validity indices.

    Returns ``{"ACC": {"mean": ..., "std": ...}, ...}``.  With ``n_jobs > 1``
    the restarts run across a process pool; the per-restart seeds are drawn
    up front so the aggregated scores are identical for any ``n_jobs``.
    """
    k = dataset.n_clusters_true or 2
    seeds = draw_trial_seeds(random_state, n_restarts)
    trial = partial(
        _score_trial, method_name=method_name, dataset=dataset, n_clusters=k, config=config
    )
    all_scores = map_trials(trial, seeds, n_jobs=n_jobs)
    return {
        index: {
            "mean": float(np.mean([scores[index] for scores in all_scores])),
            "std": float(np.std([scores[index] for scores in all_scores])),
        }
        for index in INDEX_NAMES
    }
