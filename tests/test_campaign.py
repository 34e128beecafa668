"""Tests for the full reproduction campaign suite study."""

import pytest

from repro.core.config import SimulationConfig
from repro.scenario import Study, StudyResult, run_study
from repro.scenario.builtin import campaign_study


@pytest.fixture(scope="module")
def campaign():
    base = SimulationConfig.tiny(measure_messages=200, warmup_messages=20)
    return run_study(
        campaign_study(base, loads_low_high=(0.2,), traffic_patterns=("uniform",))
    )


def test_campaign_covers_every_paper_experiment(campaign):
    names = [member.study.name for member in campaign.members]
    assert names == ["figure5", "table3", "figure6", "table4", "table5", "figure7"]


def test_campaign_experiment_lookup(campaign):
    assert campaign.member("table5").rows
    with pytest.raises(KeyError):
        campaign.member("figure99")


def test_campaign_rows_are_populated(campaign):
    for member in campaign.members:
        assert member.rows, member.study.name
        assert member.study.paper_claim


def test_campaign_reproduces_headline_claims(campaign):
    figure5 = campaign.member("figure5").rows[0]
    assert figure5["no-la-adapt_pct_increase"] > 0
    table4 = campaign.member("table4").rows[0]
    assert table4["economical_latency"] == pytest.approx(table4["full_table_latency"])
    table5 = {row["scheme"]: row for row in campaign.member("table5").rows}
    assert table5["economical-storage"]["entries_per_router"] == 9


def test_campaign_markdown_rendering(campaign):
    text = campaign.to_markdown()
    assert text.startswith("## Reproduction campaign")
    for title_fragment in ("Figure 5", "Table 3", "Figure 6", "Table 4", "Table 5", "Figure 7"):
        assert title_fragment in text
    assert "```" in text


def test_experiment_report_markdown_contains_table():
    report = StudyResult(
        study=Study(name="demo", title="Demo experiment", paper_claim="something holds"),
        points=(),
        results=(),
        rows=[{"a": 1.0, "b": 2.0}],
    )
    text = report.to_markdown()
    assert "### Demo experiment" in text
    assert "something holds" in text
    assert "1.0" in text


def test_campaign_report_is_a_dataclass_with_config(campaign):
    assert isinstance(campaign, StudyResult)
    assert campaign.study.kind == "suite"
    assert campaign.study.base_config().mesh_dims == (4, 4)
