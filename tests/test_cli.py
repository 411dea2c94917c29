"""Tests for the experiments CLI and the EXPERIMENTS.md writer."""

import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.config import SCALES, get_scale
from repro.experiments.writeup import write_markdown


class TestScales:
    def test_all_scales_defined(self):
        assert {"tiny", "small", "medium", "large"} <= set(SCALES)

    def test_budgets_grow_with_scale(self):
        assert SCALES["tiny"].n < SCALES["small"].n < SCALES["medium"].n
        assert SCALES["tiny"].pair_samples <= SCALES["medium"].pair_samples

    def test_get_scale_unknown(self):
        with pytest.raises(KeyError):
            get_scale("galactic")


class TestParser:
    def test_run_command(self):
        args = build_parser().parse_args(
            ["run", "fig3", "--scale", "tiny", "--seed", "7"]
        )
        assert args.command == "run"
        assert args.ids == ["fig3"]
        assert args.seed == 7

    def test_write_md_defaults(self):
        args = build_parser().parse_args(["write-md"])
        assert args.out == "EXPERIMENTS.md"
        assert not args.no_ixp

    def test_rejects_bad_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig3", "--scale", "nope"])


class TestMain:
    def test_list_shows_ixp_support(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "wedgie" in out
        assert "ixp rerun" in out
        wedgie_line = next(l for l in out.splitlines() if l.startswith("wedgie"))
        fig3_line = next(l for l in out.splitlines() if l.startswith("fig3"))
        assert " no " in wedgie_line
        assert " yes " in fig3_line

    def test_list_prints_every_reference_whole_in_its_column(self, capsys):
        from repro.experiments import all_experiments

        assert main(["list"]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        specs = all_experiments()
        assert len(lines) == len(specs)
        column = header.index("ixp rerun")
        for line, (eid, spec) in zip(lines, specs.items()):
            assert line.split(" ", 1)[0] == eid
            assert f" {spec.paper_reference} " in line[: column + 1], eid
            assert line[column:].startswith(
                "yes " if spec.supports_ixp else "no "
            ), eid

    def test_run_single(self, capsys):
        assert main(["run", "hardness", "--scale", "tiny", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Max-k-Security" in out

    def test_run_unknown_id(self):
        with pytest.raises(KeyError):
            main(["run", "fig99", "--scale", "tiny", "--no-cache"])


class TestWriteMarkdown:
    def test_writes_selected_experiments(self, tmp_path, monkeypatch):
        # restrict to two cheap experiments via run_all's id filter by
        # monkeypatching the registry listing.
        from repro.experiments import registry

        specs = registry.all_experiments()
        subset = {k: specs[k] for k in ("hardness", "wedgie")}
        monkeypatch.setattr(registry, "all_experiments", lambda: subset)
        monkeypatch.setattr(
            "repro.experiments.writeup.all_experiments", lambda: subset
        )
        out = tmp_path / "EXP.md"
        results = write_markdown(str(out), scale="tiny", include_ixp=False)
        text = out.read_text()
        assert len(results) == 2
        assert "## hardness" in text
        assert "```text" in text
        assert "paper vs. measured" in text
