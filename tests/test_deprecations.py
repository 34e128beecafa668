"""The CLI's pre-study subcommands warn and point at their Study equivalent."""


import pytest


def test_cli_experiment_and_campaign_wrappers_warn(capsys):
    # FutureWarning, not DeprecationWarning: the default warning filter
    # shows DeprecationWarning only in __main__, and the installed
    # console script calls main() from a wrapper module.
    from repro.cli import main

    with pytest.warns(FutureWarning, match="study table5"):
        main(["experiment", "table5"])
    capsys.readouterr()
    with pytest.warns(FutureWarning, match="study campaign"):
        main(["campaign", "--scale", "tiny", "--loads", "0.1",
              "--patterns", "uniform"])
    capsys.readouterr()
