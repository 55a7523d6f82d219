"""The clusterer registry: completeness, aliases, construction, paper presets."""

from __future__ import annotations

import pytest

import repro.baselines as baselines_pkg
import repro.core as core_pkg
from repro.core import MCDC, BaseClusterer
from repro.core.base import ArrayOrDataset
from repro.distributed.runtime import ShardedCAME, ShardedMCDC, ShardedMGCPL
from repro.experiments.runner import (
    METHOD_NAMES,
    PAPER_METHOD_PARAMS,
    make_paper_method,
)
from repro.registry import (
    available_clusterers,
    get_clusterer_spec,
    make_clusterer,
    register_clusterer,
    registered_specs,
    resolve_name,
    spec_for_instance,
)


def _all_subclasses(cls):
    out = set()
    for sub in cls.__subclasses__():
        out.add(sub)
        out |= _all_subclasses(sub)
    return out


class TestCompleteness:
    def test_every_core_and_baseline_clusterer_is_registered(self):
        registered = {spec.cls for spec in registered_specs() if spec.cls is not None}
        prefixes = (core_pkg.__name__ + ".", baselines_pkg.__name__ + ".")
        missing = [
            sub
            for sub in _all_subclasses(BaseClusterer)
            if sub.__module__.startswith(prefixes) and sub not in registered
        ]
        assert not missing, f"unregistered clusterers: {[c.__name__ for c in missing]}"

    @pytest.mark.parametrize(
        "spec", registered_specs(), ids=[s.name for s in registered_specs()]
    )
    def test_every_name_constructs_and_roundtrips_params(self, spec):
        model = make_clusterer(spec.name, **spec.example_params)
        assert isinstance(model, BaseClusterer)

        params = model.get_params()
        # every example param must be visible through get_params
        for key in spec.example_params:
            assert key in params
        # set_params with its own params is a no-op round trip
        model.set_params(**params)
        assert model.get_params() == params
        # and a clone rebuilds from those params alone
        assert type(model.clone()) is type(model)

    def test_paper_method_names_resolve(self):
        for name in METHOD_NAMES:
            assert resolve_name(name) in PAPER_METHOD_PARAMS


class TestResolution:
    def test_aliases_and_case_insensitivity(self):
        assert resolve_name("K-MODES") == "kmodes"
        assert resolve_name("MCDC+G.") == "mcdc+gudmm"
        assert resolve_name("MCDC+F.") == "mcdc+fkmawcw"
        assert resolve_name("mcdc @ Sharded") == "mcdc@sharded"
        assert resolve_name("MCDC") == "mcdc"

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="available"):
            resolve_name("dbscan")
        with pytest.raises(ValueError):
            make_clusterer("dbscan", n_clusters=2)

    def test_sharded_names_build_sharded_classes(self):
        assert isinstance(
            make_clusterer("mcdc@sharded", n_clusters=2, backend="serial"), ShardedMCDC
        )
        assert isinstance(
            make_clusterer("mgcpl@sharded", backend="serial"), ShardedMGCPL
        )
        assert isinstance(
            make_clusterer("sharded-came", n_clusters=2, backend="serial"), ShardedCAME
        )

    def test_spec_metadata(self):
        spec = get_clusterer_spec("mcdc")
        assert spec.cls is MCDC
        assert spec.description
        assert "mcdc" in available_clusterers()

    def test_spec_for_instance(self):
        assert spec_for_instance(MCDC(n_clusters=2)).name == "mcdc"
        composite = make_clusterer("mcdc+gudmm", n_clusters=2, random_state=0)
        assert spec_for_instance(composite).name == "mcdc"  # resolves to the class

        class Unregistered(BaseClusterer):
            def _fit(self, X: ArrayOrDataset):
                return self

        with pytest.raises(ValueError, match="not a registered"):
            spec_for_instance(Unregistered())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_clusterer("mcdc")
            class Impostor(BaseClusterer):  # noqa: F811
                def _fit(self, X: ArrayOrDataset):
                    return self


class TestPaperFactory:
    def test_make_paper_method_builds_paper_configurations(self):
        model = make_paper_method("MCDC+G.", n_clusters=3, seed=0)
        assert isinstance(model, MCDC)
        assert model.final_clusterer is not None
        assert type(model.final_clusterer).__name__ == "GUDMM"
        assert model.final_clusterer.n_init == 3

        kmodes = make_paper_method("K-MODES", n_clusters=3, seed=0)
        assert kmodes.n_init == 5

    def test_make_paper_method_rejects_non_paper_methods(self):
        # registered, but not one of the paper's nine compared methods
        with pytest.raises(ValueError, match="compared methods"):
            make_paper_method("competitive", n_clusters=3, seed=0)

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_old_names_still_resolve_through_the_shim(self, name):
        # The deprecated make_method shim is gone; every old paper name must
        # still build through make_paper_method, its replacement.
        model = make_paper_method(name, n_clusters=2, seed=0)
        assert isinstance(model, BaseClusterer)
