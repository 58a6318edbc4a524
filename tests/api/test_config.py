"""Tests for the namespaced config decomposition and per-task presets."""

import pytest

from repro.api import (
    FinetuneConfig,
    ModelConfig,
    PretrainConfig,
    PseudoLabelConfig,
    RunConfig,
    ServeConfig,
    SudowoodoConfig,
)
from repro.core.config import CONFIG_SECTIONS, TASK_CONFIG_DEFAULTS


class TestSections:
    def test_sections_cover_every_field_once(self):
        from dataclasses import fields

        sectioned = [n for names in CONFIG_SECTIONS.values() for n in names]
        flat = [f.name for f in fields(SudowoodoConfig)]
        assert sorted(sectioned) == sorted(flat)
        assert len(sectioned) == len(set(sectioned))

    def test_section_views_reflect_flat_fields(self):
        config = SudowoodoConfig(dim=24, pretrain_epochs=7, num_shards=3)
        assert isinstance(config.model, ModelConfig)
        assert config.model.dim == 24
        assert isinstance(config.pretrain, PretrainConfig)
        assert config.pretrain.pretrain_epochs == 7
        assert isinstance(config.serve, ServeConfig)
        assert config.serve.num_shards == 3
        assert isinstance(config.finetune, FinetuneConfig)
        assert isinstance(config.pseudo, PseudoLabelConfig)
        assert isinstance(config.run, RunConfig)

    def test_from_parts_composes_sections(self):
        config = SudowoodoConfig.from_parts(
            model=ModelConfig(dim=20),
            serve=ServeConfig(num_shards=4),
            seed=9,
        )
        assert config.dim == 20
        assert config.num_shards == 4
        assert config.seed == 9
        # untouched sections keep defaults
        assert config.pretrain_epochs == SudowoodoConfig().pretrain_epochs

    def test_from_parts_rejects_unknown_override(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            SudowoodoConfig.from_parts(bogus=1)


class TestRoundTrip:
    def test_nested_round_trip(self):
        config = SudowoodoConfig(dim=20, num_shards=2, da_operator="span_del")
        assert SudowoodoConfig.from_dict(config.to_dict()) == config

    def test_flat_round_trip(self):
        config = SudowoodoConfig(dim=20, temperature=0.2)
        assert SudowoodoConfig.from_dict(config.to_dict(nested=False)) == config

    def test_mixed_flat_and_nested(self):
        config = SudowoodoConfig.from_dict(
            {"model": {"dim": 20}, "seed": 5}
        )
        assert config.dim == 20 and config.seed == 5

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            SudowoodoConfig.from_dict({"bogus": 1})

    def test_unknown_field_in_section_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            SudowoodoConfig.from_dict({"model": {"num_shards": 2}})

    def test_non_mapping_section_rejected(self):
        with pytest.raises(ValueError, match="must map field names"):
            SudowoodoConfig.from_dict({"model": 3})

    def test_retired_fields_dropped_flat_and_nested(self):
        from repro.core.config import RETIRED_CONFIG_FIELDS

        retired = {name: 1 for name in RETIRED_CONFIG_FIELDS}
        config = SudowoodoConfig(dim=20)
        flat = {**config.to_dict(nested=False), **retired}
        assert SudowoodoConfig.from_dict(flat) == config
        nested = config.to_dict()
        nested["serve"].update(retired)
        assert SudowoodoConfig.from_dict(nested) == config
        with pytest.raises(ValueError, match="unknown config key"):
            SudowoodoConfig.from_dict({**flat, "lsh_num_probes": 1})


class TestForTask:
    def test_overrides_win(self):
        config = SudowoodoConfig.for_task("clean", dim=12, da_operator="span_del")
        assert config.dim == 12
        assert config.da_operator == "span_del"
        assert not config.use_pseudo_labeling

    def test_match_preset_is_default(self):
        assert SudowoodoConfig.for_task("match") == SudowoodoConfig()

    def test_unknown_task_lists_valid_names(self):
        with pytest.raises(ValueError, match="valid tasks"):
            SudowoodoConfig.for_task("bogus")

    def test_presets_cover_registered_tasks(self):
        from repro.api import available_tasks

        assert set(available_tasks()) <= set(TASK_CONFIG_DEFAULTS)


class TestValidation:
    def test_rejects_unknown_pooling_listing_options(self):
        with pytest.raises(ValueError, match="cls, mean"):
            SudowoodoConfig(pooling="max").validate()

    def test_rejects_unknown_da_operator_listing_options(self):
        with pytest.raises(ValueError, match="token_del"):
            SudowoodoConfig(da_operator="bogus").validate()

    def test_rejects_unknown_cutoff_kind_listing_options(self):
        with pytest.raises(ValueError, match="feature, none, span, token"):
            SudowoodoConfig(cutoff_kind="bogus").validate()

    def test_auto_operator_is_valid(self):
        SudowoodoConfig(da_operator="auto").validate()

    def test_every_registered_operator_is_valid(self):
        from repro.augment.operators import ALL_OPERATORS

        for name in ALL_OPERATORS:
            SudowoodoConfig(da_operator=name).validate()
