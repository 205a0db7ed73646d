"""Tests for the campaign runner and its results directories."""

import dataclasses
import json

import pytest

from repro.eval.campaign import (
    CampaignResult,
    config_from_manifest,
    config_to_dict,
    main,
    run_campaign,
)
from repro.eval.experiments import EvaluationConfig
from repro.services.requirement import RequirementClass

SMALL = EvaluationConfig(network_sizes=(10,), trials=2, n_services=4, seed=5)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    return run_campaign(SMALL, output_dir=out)


class TestRunCampaign:
    def test_all_four_tables(self, campaign):
        assert set(campaign.tables) == {"fig10a", "fig10b", "fig10c", "fig10d"}

    def test_records_collected(self, campaign):
        assert len(campaign.mixed_records) == 2 * 5  # trials x algorithms
        assert len(campaign.path_records) == 2 * 5

    def test_files_written(self, campaign):
        files = sorted(p.name for p in campaign.output_dir.iterdir())
        assert "manifest.json" in files
        assert "records.csv" in files
        assert "summary.txt" in files
        for name in ("fig10a", "fig10b", "fig10c", "fig10d"):
            assert f"{name}.csv" in files

    def test_summary_contains_all_tables(self, campaign):
        text = (campaign.output_dir / "summary.txt").read_text()
        for name in campaign.tables:
            assert name in text

    def test_records_csv_has_header_and_rows(self, campaign):
        lines = (campaign.output_dir / "records.csv").read_text().splitlines()
        assert lines[0].startswith("network_size,")
        assert len(lines) == 1 + len(campaign.mixed_records) + len(
            campaign.path_records
        )


class TestManifest:
    def test_manifest_records_version_and_config(self, campaign):
        manifest = json.loads(
            (campaign.output_dir / "manifest.json").read_text()
        )
        import repro

        assert manifest["library_version"] == repro.__version__
        assert manifest["config"]["trials"] == 2

    def test_config_roundtrip(self, campaign):
        rebuilt = config_from_manifest(campaign.output_dir / "manifest.json")
        assert rebuilt == SMALL

    def test_config_roundtrip_with_requirement_class(self, tmp_path):
        config = EvaluationConfig(
            network_sizes=(10,),
            trials=1,
            n_services=4,
            requirement_class=RequirementClass.PATH,
        )
        run_campaign(config, output_dir=tmp_path)
        assert config_from_manifest(tmp_path / "manifest.json") == config

    def test_config_to_dict_serialisable(self):
        json.dumps(config_to_dict(SMALL))

    def test_every_config_field_survives_the_manifest(self, tmp_path):
        """A non-default value in *every* field comes back equal, so the
        next field added to the config cannot break the round trip
        unnoticed (``slos`` once came back as a tuple of dicts)."""
        changed = {
            "network_sizes": (12, 16),
            "trials": 3,
            "n_services": 4,
            "horizon": 3,
            "seed": 7,
            "workers": 2,
            "requirement_class": RequirementClass.SPLIT_MERGE,
        }
        fields = {f.name for f in dataclasses.fields(EvaluationConfig)}
        assert set(changed) == fields, "give the new field a non-default value"
        config = EvaluationConfig(**changed)
        default = EvaluationConfig()
        for name in fields:
            assert getattr(config, name) != getattr(default, name), name
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"config": config_to_dict(config)}))
        assert config_from_manifest(manifest) == config


class TestCli:
    def test_main_writes_results(self, tmp_path, capsys):
        code = main(
            [
                "--out", str(tmp_path / "run"),
                "--trials", "1",
                "--sizes", "10",
                "--services", "4",
            ]
        )
        assert code == 0
        assert (tmp_path / "run" / "manifest.json").exists()
        out = capsys.readouterr().out
        assert "fig10a" in out and "results written" in out
