"""CLI surface of the serving layer: index build, query, serve."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.serve import IntelIndex

SCALE = ["--scale", "0.005", "--seed", "7"]


@pytest.fixture(scope="module")
def index_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("intel") / "index.json"
    assert main(["index", "build", *SCALE, "--out", str(path)]) == 0
    return path


class TestIndexBuild:
    def test_build_is_deterministic_across_invocations(self, tmp_path, index_file):
        again = tmp_path / "again.json"
        assert main(["index", "build", *SCALE, "--out", str(again)]) == 0
        assert again.read_bytes() == index_file.read_bytes()

    def test_build_reports_version_and_counts(self, capsys, tmp_path):
        out = tmp_path / "idx.json"
        assert main(["index", "build", *SCALE, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        version = IntelIndex.load(out).version
        assert f"index {version} written" in printed
        assert "addresses=" in printed and "families=" in printed

    def test_build_from_dataset_file(self, capsys, tmp_path):
        dataset = tmp_path / "ds.json"
        assert main(["build-dataset", *SCALE, "--out", str(dataset)]) == 0
        capsys.readouterr()
        out = tmp_path / "idx.json"
        assert main(["index", "build", "--dataset", str(dataset),
                     "--out", str(out)]) == 0
        index = IntelIndex.load(out)
        assert len(index) > 0
        assert index.counts()["families"] == 0  # bare dataset: no clustering

    def test_build_missing_dataset_file_exits_1(self, capsys, tmp_path):
        assert main(["index", "build", "--dataset", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "idx.json")]) == 1
        assert "no such dataset file" in capsys.readouterr().err


class TestQuery:
    def test_flagged_address_exits_2(self, capsys, index_file):
        index = IntelIndex.load(index_file)
        operator = next(
            i.address for i in index.addresses.values() if i.role == "operator"
        )
        assert main(["query", "address", operator,
                     "--index", str(index_file)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["role"] == "operator"

    def test_unknown_address_exits_0(self, capsys, index_file):
        assert main(["query", "address", "0x" + "00" * 20,
                     "--index", str(index_file)]) == 0
        assert json.loads(capsys.readouterr().out)["flagged"] is False

    def test_screen_mixed_batch_exits_2(self, capsys, index_file):
        index = IntelIndex.load(index_file)
        contract = next(
            i.address for i in index.addresses.values() if i.role == "contract"
        )
        assert main(["query", "screen", contract, "0x" + "11" * 20,
                     "--index", str(index_file)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert [v["flagged"] for v in doc["verdicts"]] == [True, False]

    def test_screen_clean_batch_exits_0(self, capsys, index_file):
        assert main(["query", "screen", "0x" + "11" * 20,
                     "--index", str(index_file)]) == 0

    def test_families_and_top(self, capsys, index_file):
        assert main(["query", "families", "--index", str(index_file)]) == 0
        families = json.loads(capsys.readouterr().out)["families"]
        assert families
        assert main(["query", "top", "affiliate", "--top-k", "3",
                     "--index", str(index_file)]) == 0
        assert len(json.loads(capsys.readouterr().out)["top"]) == 3

    def test_unknown_family_exits_1(self, capsys, index_file):
        assert main(["query", "family", "No Such Family",
                     "--index", str(index_file)]) == 1
        assert "no such family" in capsys.readouterr().err

    def test_missing_index_flag_exits_1(self, capsys):
        assert main(["query", "address", "0x" + "11" * 20]) == 1
        assert "--index FILE is required" in capsys.readouterr().err

    def test_corrupt_index_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["query", "families", "--index", str(bad)]) == 1
        assert "not an intelligence index" in capsys.readouterr().err


class TestServe:
    def test_serve_without_index_exits_1(self, capsys, tmp_path):
        assert main(["serve", "--index", str(tmp_path / "absent.json")]) == 1
        assert "no such index file" in capsys.readouterr().err

    def test_threaded_flag_is_gone(self, capsys, index_file):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--index", str(index_file), "--threaded"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --threaded" in capsys.readouterr().err
