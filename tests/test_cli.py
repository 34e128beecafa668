"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


def wrapper_warns():
    """The ``experiment``/``campaign`` subcommands warn that they wrap the
    study path (see tests/test_deprecations.py)."""
    return pytest.warns(FutureWarning, match="wrapper over the study path")


TINY_ARGS = [
    "--mesh", "4x4",
    "--message-length", "4",
    "--messages", "150",
    "--warmup", "20",
    "--load", "0.2",
]


def test_parser_requires_a_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_parser_rejects_bad_mesh_and_loads():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--mesh", "axb"])
    with pytest.raises(SystemExit):
        parser.parse_args(["sweep", "--loads", "0.1,x"])


def test_run_command_prints_a_summary_row(capsys):
    exit_code = main(["run", *TINY_ARGS])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "latency" in output
    assert "uniform" in output


def test_run_command_honours_configuration_flags(capsys):
    exit_code = main(
        ["run", *TINY_ARGS, "--traffic", "transpose", "--selector", "lru",
         "--pipeline", "proud", "--table", "full"]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "transpose" in output
    assert "lru" in output
    assert "proud" in output


def test_run_command_accepts_schedule_mode_flags(capsys):
    # Pinning the object core must not change the numbers relative to
    # the default flat core (the two cores are a bit-identical pair).
    exit_code = main(["run", *TINY_ARGS, "--core-mode", "objects"])
    assert exit_code == 0
    pinned = capsys.readouterr().out
    assert main(["run", *TINY_ARGS]) == 0
    assert capsys.readouterr().out == pinned


def test_parser_rejects_unknown_link_mode():
    # Both the link- and the switch-schedule flags are gone.
    from repro.cli import build_parser

    for flag in ("--link-mode", "--switch-mode"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", flag, "reference"])


def test_sweep_command_prints_one_row_per_load(capsys):
    exit_code = main(["sweep", *TINY_ARGS, "--loads", "0.1,0.3"])
    assert exit_code == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
    # header + separator + two data rows
    assert len(lines) == 4
    assert lines[0].startswith("load")


def test_experiment_names_cover_every_paper_item():
    assert set(EXPERIMENTS) == {
        "figure5", "table3", "figure6", "table4", "table5", "figure7",
    }


def test_experiment_table5_is_analytic_and_fast(capsys):
    with wrapper_warns():
        exit_code = main(["experiment", "table5", "--scale", "tiny"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "economical-storage" in output
    assert "full-table" in output


def test_experiment_figure7_prints_the_programming_table(capsys):
    with wrapper_warns():
        exit_code = main(["experiment", "figure7"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "north_last_ports" in output
    assert "+Y" in output


def test_experiment_rejects_unknown_name():
    with pytest.raises(SystemExit):
        main(["experiment", "figure99"])


def test_run_command_caches_results(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert main(["run", *TINY_ARGS, "--cache-dir", str(cache_dir)]) == 0
    first = capsys.readouterr().out
    assert len(list(cache_dir.glob("*.json"))) == 1
    # Second invocation is served from the cache and prints the same row.
    assert main(["run", *TINY_ARGS, "--cache-dir", str(cache_dir)]) == 0
    assert capsys.readouterr().out == first


def test_sweep_command_accepts_workers(capsys):
    exit_code = main(["sweep", *TINY_ARGS, "--loads", "0.1,0.3", "--workers", "2"])
    assert exit_code == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
    assert len(lines) == 4


def test_campaign_command_prints_markdown_report(capsys):
    with wrapper_warns():
        exit_code = main(
            ["campaign", "--scale", "tiny", "--loads", "0.2", "--patterns", "uniform"]
        )
    assert exit_code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("## Reproduction campaign")
    assert "### Figure 5" in captured.out
    assert "simulations run" in captured.err


def test_campaign_command_warm_cache_runs_zero_simulations(tmp_path, capsys):
    cache_dir = str(tmp_path / "campaign-cache")
    args = ["campaign", "--scale", "tiny", "--loads", "0.2",
            "--patterns", "uniform", "--cache-dir", cache_dir]
    with wrapper_warns():
        assert main(args) == 0
    capsys.readouterr()
    with wrapper_warns():
        assert main([*args, "--workers", "2"]) == 0
    captured = capsys.readouterr()
    assert "campaign: 0 simulations run" in captured.err


def test_analytic_experiments_do_not_create_a_cache_dir(tmp_path, capsys):
    cache_dir = tmp_path / "never-created"
    with wrapper_warns():
        assert main(["experiment", "table5", "--cache-dir", str(cache_dir)]) == 0
    capsys.readouterr()
    assert not cache_dir.exists()


def test_workers_flag_rejects_non_positive_counts():
    with pytest.raises(SystemExit):
        main(["run", *TINY_ARGS, "--workers", "0"])
    with pytest.raises(SystemExit):
        main(["run", *TINY_ARGS, "--workers", "-3"])


def test_cache_dir_pointing_at_a_file_fails_cleanly(tmp_path):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    with pytest.raises(SystemExit) as excinfo:
        main(["run", *TINY_ARGS, "--cache-dir", str(not_a_dir)])
    assert "cannot use cache directory" in str(excinfo.value)


def test_campaign_bad_output_path_still_prints_the_report(capsys):
    with pytest.raises(SystemExit) as excinfo, wrapper_warns():
        main(["campaign", "--scale", "tiny", "--loads", "0.2",
              "--patterns", "uniform", "--output", "/no/such/dir/report.md"])
    assert "cannot write report" in str(excinfo.value)
    assert capsys.readouterr().out.startswith("## Reproduction campaign")


def test_campaign_rejects_more_than_two_loads():
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", "--scale", "tiny", "--loads", "0.1,0.2,0.3"])
    assert "one or two loads" in str(excinfo.value)


def test_campaign_command_writes_output_file(tmp_path, capsys):
    output = tmp_path / "report.md"
    with wrapper_warns():
        exit_code = main(
            ["campaign", "--scale", "tiny", "--loads", "0.2",
             "--patterns", "uniform", "--output", str(output)]
        )
    assert exit_code == 0
    capsys.readouterr()
    assert output.read_text().startswith("## Reproduction campaign")


# -- the study subcommand ------------------------------------------------------------


def test_study_list_shows_builtins_and_registries(capsys):
    assert main(["study", "--list"]) == 0
    output = capsys.readouterr().out
    assert "figure5" in output
    assert "campaign" in output
    assert "traffic" in output
    assert "uniform" in output


def test_study_without_spec_fails_cleanly():
    with pytest.raises(SystemExit) as excinfo:
        main(["study"])
    assert "spec file or built-in name" in str(excinfo.value)


def test_study_unknown_name_lists_alternatives():
    with pytest.raises(SystemExit) as excinfo:
        main(["study", "figure99"])
    assert "figure5" in str(excinfo.value)


def test_study_runs_builtin_analytic_by_name(capsys):
    assert main(["study", "figure7"]) == 0
    output = capsys.readouterr().out
    assert "north_last_ports" in output
    assert "+Y" in output


def test_study_runs_a_spec_file_and_writes_output(tmp_path, capsys):
    from repro.core.config import SimulationConfig
    from repro.scenario.builtin import sweep_study

    spec = sweep_study(
        SimulationConfig.tiny(measure_messages=100, warmup_messages=10),
        loads=(0.1, 0.2),
        stop_at_saturation=False,
    )
    spec_file = tmp_path / "sweep.json"
    spec_file.write_text(spec.to_json(), encoding="utf-8")
    report_file = tmp_path / "report.txt"
    cache_dir = tmp_path / "cache"
    args = ["study", str(spec_file), "--cache-dir", str(cache_dir),
            "--output", str(report_file)]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("load")
    assert report_file.read_text() == captured.out[: len(report_file.read_text())]
    assert "study sweep: 2 simulations run" in captured.err
    # Workers and the warm cache reproduce the identical report.
    assert main([*args, "--workers", "2"]) == 0
    rerun = capsys.readouterr()
    assert rerun.out == captured.out
    assert "0 simulations run" in rerun.err


def test_study_campaign_prints_markdown(tmp_path, capsys):
    # The tiny builtin campaign is the slowest study; trim it via a spec
    # derived from the shipped one with only the two analytic members.
    import json as json_module

    from repro.scenario.builtin import spec_path

    data = json_module.loads(spec_path("campaign").read_text(encoding="utf-8"))
    data["members"] = [m for m in data["members"] if m["kind"] == "analytic"]
    spec_file = tmp_path / "analytic_campaign.json"
    spec_file.write_text(json_module.dumps(data), encoding="utf-8")
    assert main(["study", str(spec_file)]) == 0
    output = capsys.readouterr().out
    assert output.startswith("## Reproduction campaign")
    assert "### Table 5" in output
    assert "### Figure 7" in output


def test_study_rejects_unreadable_spec_file(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["study", str(tmp_path / "missing.json")])
    assert "cannot read study spec" in str(excinfo.value)


def test_study_bad_component_name_fails_cleanly(tmp_path):
    import json as json_module

    from repro.core.config import SimulationConfig

    base = SimulationConfig.tiny().to_dict()
    base["traffic"] = "no-such-pattern"
    spec_file = tmp_path / "bad_component.json"
    spec_file.write_text(
        json_module.dumps({"study": "bad", "kind": "grid", "base": base}),
        encoding="utf-8",
    )
    with pytest.raises(SystemExit) as excinfo:
        main(["study", str(spec_file)])
    message = str(excinfo.value)
    assert message.startswith("lapses: cannot run study")
    assert "no-such-pattern" in message


def test_study_malformed_spec_shape_fails_cleanly(tmp_path):
    import json as json_module

    spec_file = tmp_path / "malformed.json"
    # An axis without "field"/"variants" is a shape error, not a value error.
    spec_file.write_text(
        json_module.dumps(
            {"study": "bad", "kind": "grid", "base": {}, "axes": [{"values": [1]}]}
        ),
        encoding="utf-8",
    )
    with pytest.raises(SystemExit) as excinfo:
        main(["study", str(spec_file)])
    assert "invalid study spec" in str(excinfo.value)
