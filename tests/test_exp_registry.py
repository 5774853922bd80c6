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


class TestSignature:
    def test_driver_signature_is_computed_once_per_spec(self,
                                                        monkeypatch):
        import inspect

        from repro.exp.runner import experiment_key, resolve_run

        calls = []
        real_signature = inspect.signature

        def counting_signature(fn):
            calls.append(fn)
            return real_signature(fn)

        monkeypatch.setattr(inspect, "signature", counting_signature)

        def driver(n_bits=4, seed=0, workers=None):
            return n_bits

        spec = ExperimentSpec(name="sig", fn=driver, figure="-", claim="-")
        assert spec.parallelizable and spec.seedable
        key = experiment_key(spec, {"n_bits": 5})
        assert experiment_key(spec, {"n_bits": 5}) == key
        assert calls == [driver]

        fig3 = get_experiment("fig3")
        for _ in range(3):
            resolve_run("fig3", {"pattern_bits": 8}, workers=2)
        assert calls in ([driver], [driver, fig3.fn])


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
