"""End-to-end command-line pipeline on a small corpus.

Runs every stage through main() in-process: data generation, morph
generation, protocol build, both trainings, evaluation with fusion, and
the comparison report. Reruns must be byte-identical.
"""

import os

import numpy as np
import pytest

from morphdet.cli import main

SIZE_FLAGS = ["--image-size", "16"]
DATA_FLAGS = ["--n-identities", "6", "--images-per-identity", "3"] + SIZE_FLAGS
NET_FLAGS = ["--hidden-dims", "16", "--feature-dim", "8"]


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_pipeline")
    data = base / "data"
    train_dir = base / "train"
    eval_dir = base / "eval"

    assert run(["gen-data", "--data-dir", data, "--seed", 3] + DATA_FLAGS) == 0
    assert run(["gen-morphs", "--data-dir", data, "--seed", 3] + SIZE_FLAGS) == 0
    assert run(["gen-protocol", "--data-dir", data, "--seed", 3,
                "--family", "landmark"]) == 0
    assert run(["gen-protocol", "--data-dir", data, "--seed", 3,
                "--family", "latent"]) == 0
    assert run(["train", "--data-dir", data, "--out-dir", train_dir,
                "--seed", 3, "--variant", "fc-v2",
                "--train-families", "landmark",
                "--epochs", 2, "--batch-size", 7] + NET_FLAGS) == 0
    assert run(["train-fr", "--data-dir", data, "--out-dir", train_dir,
                "--seed", 3, "--epochs", 2, "--batch-size", 6] + NET_FLAGS) == 0
    assert run(["eval", "--data-dir", data, "--out-dir", eval_dir,
                "--checkpoint", train_dir / "checkpoint.mdck",
                "--protocol", data / "protocol-landmark.tsv",
                "--fr-checkpoint", train_dir / "fr.mdck"]) == 0
    return dict(base=base, data=data, train=train_dir, eval=eval_dir)


def test_pipeline_artifacts_exist(pipeline):
    data = pipeline["data"]
    assert (data / "manifest.tsv").is_file()
    assert (data / "morphs.tsv").is_file()
    assert (data / "split.tsv").is_file()
    assert (data / "protocol-landmark.tsv").is_file()
    assert (data / "protocol-latent.tsv").is_file()
    assert (data / "gen-data.config").is_file()
    train_dir = pipeline["train"]
    assert (train_dir / "checkpoint.mdck").is_file()
    assert (train_dir / "fr.mdck").is_file()
    assert (train_dir / "train_report.csv").is_file()
    assert (train_dir / "fr_report.csv").is_file()
    eval_dir = pipeline["eval"]
    for name in ("scores.tsv", "scores_fused.tsv", "metrics.csv",
                 "det.csv", "det.svg", "eval.config"):
        assert (eval_dir / name).is_file(), name


def test_eval_scores_cover_the_protocol(pipeline):
    from morphdet.evalbench import read_protocol, read_scores

    entries = read_protocol(pipeline["data"] / "protocol-landmark.tsv")
    scores = read_scores(pipeline["eval"] / "scores.tsv")
    assert [p for p, _ in scores] == [e.pair_id for e in entries]
    fused = read_scores(pipeline["eval"] / "scores_fused.tsv")
    for (_, mad), (_, fz) in zip(scores, fused):
        assert 0.0 <= fz <= mad <= 1.0
    metrics = (pipeline["eval"] / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "method,delta,apcer,threshold"
    methods = {line.split(",")[0] for line in metrics[1:]}
    assert methods == {"mad", "fused-dissimilarity"}


def test_eval_rerun_is_byte_identical(pipeline):
    eval2 = pipeline["base"] / "eval2"
    assert run(["eval", "--data-dir", pipeline["data"], "--out-dir", eval2,
                "--checkpoint", pipeline["train"] / "checkpoint.mdck",
                "--protocol", pipeline["data"] / "protocol-landmark.tsv",
                "--fr-checkpoint", pipeline["train"] / "fr.mdck"]) == 0
    for name in ("scores.tsv", "scores_fused.tsv", "metrics.csv", "det.csv"):
        assert (eval2 / name).read_bytes() == (pipeline["eval"] / name).read_bytes()


def test_full_regeneration_is_byte_identical(pipeline):
    base2 = pipeline["base"] / "regen"
    data2 = base2 / "data"
    train2 = base2 / "train"
    assert run(["gen-data", "--data-dir", data2, "--seed", 3] + DATA_FLAGS) == 0
    assert run(["gen-morphs", "--data-dir", data2, "--seed", 3] + SIZE_FLAGS) == 0
    assert run(["train", "--data-dir", data2, "--out-dir", train2,
                "--seed", 3, "--variant", "fc-v2",
                "--train-families", "landmark",
                "--epochs", 2, "--batch-size", 7] + NET_FLAGS) == 0
    for rel in ("manifest.tsv", "morphs.tsv", "split.tsv"):
        assert (data2 / rel).read_bytes() == (pipeline["data"] / rel).read_bytes()
    assert ((train2 / "checkpoint.mdck").read_bytes()
            == (pipeline["train"] / "checkpoint.mdck").read_bytes())
    assert ((train2 / "train_report.csv").read_bytes()
            == (pipeline["train"] / "train_report.csv").read_bytes())


def test_compare_command(pipeline, capsys):
    out = pipeline["base"] / "compare"
    assert run(["compare", "--out-dir", out,
                "--protocol", pipeline["data"] / "protocol-landmark.tsv",
                f"mad={pipeline['eval'] / 'scores.tsv'}",
                f"fused={pipeline['eval'] / 'scores_fused.tsv'}"]) == 0
    table = capsys.readouterr().out
    assert "mad" in table and "fused" in table
    assert "apcer@bpcer<=0.1" in table
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == "method,delta,apcer,threshold"
    assert {line.split(",")[0] for line in lines[1:]} == {"mad", "fused"}
    assert (out / "det-mad.csv").is_file()
    assert (out / "det-fused.csv").is_file()


def test_compare_rejects_a_nan_score(pipeline, tmp_path, capsys):
    lines = (pipeline["eval"] / "scores.tsv").read_text().splitlines()
    pair_id = lines[1].split("\t")[0]
    lines[1] = f"{pair_id}\tnan"
    spoiled = tmp_path / "nan.tsv"
    spoiled.write_text("\n".join(lines) + "\n")
    assert run(["compare", "--out-dir", tmp_path / "cmp",
                "--protocol", pipeline["data"] / "protocol-landmark.tsv",
                f"mad={spoiled}"]) == 3
    err = capsys.readouterr().err
    assert "non-finite" in err and pair_id in err


def test_train_respects_family_selection(pipeline, capsys):
    out = pipeline["base"] / "train_latent"
    assert run(["train", "--data-dir", pipeline["data"], "--out-dir", out,
                "--seed", 3, "--variant", "bc", "--train-families", "latent",
                "--epochs", 1, "--batch-size", 7] + NET_FLAGS) == 0
    stdout = capsys.readouterr().out
    assert "trained bc" in stdout
    assert ((out / "checkpoint.mdck").read_bytes()
            != (pipeline["train"] / "checkpoint.mdck").read_bytes())


def test_config_file_drives_generation(pipeline, tmp_path, capsys):
    cfg = tmp_path / "tiny.config"
    cfg.write_text(
        "n_identities = 4\nimages_per_identity = 2\nimage_size = 16\nseed = 9\n"
    )
    out = tmp_path / "cfgdata"
    assert run(["gen-data", "--config", cfg, "--data-dir", out]) == 0
    assert "wrote 8 bona fide images" in capsys.readouterr().out
    # a flag overrides the same key from the file
    out2 = tmp_path / "cfgdata2"
    assert run(["gen-data", "--config", cfg, "--data-dir", out2,
                "--n-identities", 5]) == 0
    assert "wrote 10 bona fide images" in capsys.readouterr().out


def test_exit_codes(pipeline, tmp_path, capsys):
    assert main([]) == 1  # no command prints help
    capsys.readouterr()
    assert run(["train", "--no-such-flag", "1"]) == 1
    assert "error:" in capsys.readouterr().err
    assert run(["gen-morphs", "--data-dir", tmp_path / "void"]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["eval", "--data-dir", pipeline["data"], "--out-dir", tmp_path,
                "--protocol", pipeline["data"] / "protocol-landmark.tsv"]) == 1
    capsys.readouterr()
    assert run(["eval", "--data-dir", pipeline["data"], "--out-dir", tmp_path,
                "--checkpoint", tmp_path / "absent.mdck",
                "--protocol", pipeline["data"] / "protocol-landmark.tsv"]) == 2
    capsys.readouterr()
    assert run(["compare", "--out-dir", tmp_path,
                "--protocol", pipeline["data"] / "protocol-landmark.tsv",
                "noequals"]) == 1
    capsys.readouterr()
    assert run(["compare", "--out-dir", tmp_path,
                "--protocol", pipeline["data"] / "protocol-landmark.tsv",
                "bad name=scores.tsv"]) == 1
    capsys.readouterr()


def test_training_divergence_exits_with_numeric_code(pipeline, tmp_path, capsys):
    with np.errstate(all="ignore"):
        code = run(["train", "--data-dir", pipeline["data"],
                    "--out-dir", tmp_path / "diverged", "--seed", 3,
                    "--variant", "fc-v1", "--train-families", "landmark",
                    "--epochs", 2, "--batch-size", 7,
                    "--lr-start", "1e8", "--lr-end", "1e7"] + NET_FLAGS)
    assert code == 3
    err = capsys.readouterr().err
    assert "diverged" in err or "non-finite" in err


def test_selftest_command(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest ok" in out
    assert "gradient check" in out
    assert "metric oracle" in out


def test_eval_surfaces_exclusions(pipeline, tmp_path, capsys):
    protocol = pipeline["data"] / "protocol-landmark.tsv"
    broken = tmp_path / "broken.tsv"
    broken.write_text(protocol.read_text()
                      + "x9999\timages/absent.pgm\timages/absent.pgm\tmorph\n")
    code = run(["eval", "--data-dir", pipeline["data"],
                "--out-dir", tmp_path / "excl",
                "--checkpoint", pipeline["train"] / "checkpoint.mdck",
                "--protocol", broken])
    assert code == 2
    captured = capsys.readouterr()
    assert "excluded x9999" in captured.err
    # scored entries still produced a usable report before the failure exit
    assert (tmp_path / "excl" / "scores.tsv").is_file()
