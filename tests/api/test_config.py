"""Tests for the flat config shape, its dict round-trip and per-task presets."""

from dataclasses import asdict

import pytest

from repro.api import SudowoodoConfig
from repro.core.config import (
    RETIRED_CONFIG_FIELDS,
    RETIRED_DA_OPERATORS,
    TASK_CONFIG_DEFAULTS,
)


class TestRoundTrip:
    def test_flat_round_trip(self):
        config = SudowoodoConfig(dim=20, alpha_bt=0.2)
        assert SudowoodoConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            SudowoodoConfig.from_dict({"bogus": 1})

    def test_retired_fields_dropped_flat_and_nested(self):
        from repro.core.config import RETIRED_CONFIG_FIELDS

        retired = {name: 1 for name in RETIRED_CONFIG_FIELDS}
        config = SudowoodoConfig(dim=20)
        flat = {**config.to_dict(), **retired}
        assert SudowoodoConfig.from_dict(flat) == config
        with pytest.raises(ValueError, match="unknown config key"):
            SudowoodoConfig.from_dict({**flat, "lsh_num_probes": 1})

    @pytest.mark.parametrize("name", RETIRED_CONFIG_FIELDS)
    def test_retired_field_is_no_longer_a_keyword(self, name):
        # A retired name loads from a saved dict but cannot be set.
        assert SudowoodoConfig.from_dict({name: 1}) == SudowoodoConfig()
        with pytest.raises(TypeError, match=name):
            SudowoodoConfig(**{name: 1})

    def test_to_dict_is_flat_asdict(self):
        config = SudowoodoConfig(dim=20, num_shards=2, train_workers=2)
        assert config.to_dict() == asdict(config)

    @pytest.mark.parametrize("task", sorted(TASK_CONFIG_DEFAULTS))
    def test_every_preset_round_trips(self, task):
        config = SudowoodoConfig.for_task(task)
        assert SudowoodoConfig.from_dict(config.to_dict()) == config

    def test_section_name_rejected_listing_fields(self):
        with pytest.raises(ValueError, match="'model'") as error:
            SudowoodoConfig.from_dict({"model": {"dim": 20}})
        assert "valid fields" in str(error.value)
        assert "'dim'" in str(error.value)

    def test_encoder_checkpoint_keeps_config(self, tmp_path):
        from repro.core.encoder import SudowoodoEncoder
        from repro.core.persistence import load_encoder, save_encoder
        from repro.text.tokenizer import Tokenizer

        config = SudowoodoConfig(
            dim=16, num_heads=2, ffn_dim=32,
            vocab_size=64, seed=3, train_workers=2, num_shards=2,
        )
        tokenizer = Tokenizer.fit(["alpha beta gamma", "delta epsilon"])
        path = save_encoder(SudowoodoEncoder(config, tokenizer), tmp_path / "enc")
        assert load_encoder(path).config == config


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
    def test_rejects_unknown_da_operator_listing_options(self):
        with pytest.raises(ValueError, match="token_del"):
            SudowoodoConfig(da_operator="bogus").validate()

    def test_rejects_unknown_cutoff_kind_listing_options(self):
        with pytest.raises(ValueError, match="feature, none, span, token"):
            SudowoodoConfig(cutoff_kind="bogus").validate()

    @pytest.mark.parametrize("operator", ["auto", "mixup_embed", "identity"])
    def test_retired_operator_is_rejected(self, operator):
        assert operator in RETIRED_DA_OPERATORS
        with pytest.raises(ValueError, match=operator):
            SudowoodoConfig(da_operator=operator).validate()

    @pytest.mark.parametrize("operator", ["auto", "mixup_embed", "identity"])
    def test_saved_retired_operator_loads_as_the_default(self, operator):
        config = SudowoodoConfig.from_dict({"da_operator": operator, "dim": 20})
        assert config == SudowoodoConfig(dim=20)
        config.validate()

    def test_every_registered_operator_is_valid(self):
        from repro.augment.operators import ALL_OPERATORS

        for name in ALL_OPERATORS:
            SudowoodoConfig(da_operator=name).validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cutoff_ratio", 1.0),
            ("cutoff_ratio", 1.5),
            ("cutoff_ratio", -0.1),
            ("blocking_k", 0),
            ("blocking_k", -3),
            ("train_workers", 0),
            ("train_workers", -2),
        ],
    )
    def test_rejects_out_of_range_cutoff_ratio_and_blocking_k(self, field, value):
        with pytest.raises(ValueError, match=field):
            SudowoodoConfig(**{field: value}).validate()

    @pytest.mark.parametrize("ratio", [0.0, 0.01, 0.05, 0.08, 0.1])
    def test_accepts_in_range_cutoff_ratio(self, ratio):
        SudowoodoConfig(cutoff_ratio=ratio, blocking_k=1).validate()
