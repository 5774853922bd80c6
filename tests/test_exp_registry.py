"""Tests for the experiment registry."""

import pytest

from repro.exp.registry import (
    ExperimentSpec,
    RegistryError,
    all_experiments,
    experiment_names,
    get_experiment,
    register,
)


class TestCatalog:
    def test_every_paper_figure_is_registered(self):
        names = set(experiment_names())
        expected = {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                    "fig9", "fig10", "fig11", "fig12", "fig13", "sec63",
                    "sec91", "sec103", "sec114", "sec12", "table3",
                    "ablation-refresh", "ablation-trecv", "ablation-window"}
        assert expected <= names

    def test_specs_have_metadata(self):
        for spec in all_experiments():
            assert spec.name
            assert spec.figure
            assert spec.claim
            assert callable(spec.fn)

    def test_registration_order_is_stable(self):
        orders = [spec.order for spec in all_experiments()]
        assert orders == sorted(orders)

    def test_quick_specs_carry_checks(self):
        quick = [s for s in all_experiments() if s.quick is not None]
        assert len(quick) >= 6  # the report's headline experiments
        for spec in quick:
            assert spec.check is not None

    def test_sweeps_are_parallelizable(self):
        for name in ("fig4", "fig7", "fig11", "fig12", "fig13"):
            assert get_experiment(name).parallelizable
        assert not get_experiment("table3").parallelizable


class TestLookup:
    def test_get_by_name(self):
        spec = get_experiment("fig4")
        assert spec.name == "fig4"
        assert spec.figure == "Fig. 4"

    def test_get_by_alias(self):
        assert get_experiment("fig04") is get_experiment("fig4")
        assert get_experiment("table2") is get_experiment("fig10")

    def test_unknown_name_raises_with_catalog(self):
        with pytest.raises(RegistryError, match="unknown experiment"):
            get_experiment("fig99")

    def test_duplicate_registration_rejected(self):
        spec = get_experiment("fig4")
        with pytest.raises(RegistryError, match="already registered"):
            register(ExperimentSpec(name="fig4", fn=spec.fn,
                                    figure="x", claim="y"))

    def test_duplicate_alias_rejected(self):
        with pytest.raises(RegistryError, match="already registered"):
            register(ExperimentSpec(name="brand-new", fn=lambda: None,
                                    figure="x", claim="y",
                                    aliases=("table2",)))
