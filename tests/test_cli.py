"""End-to-end command-line pipeline on a small corpus.

Runs every stage through main() in-process: data generation, morph
generation, protocol build, both trainings, evaluation with fusion, and
the comparison report. Reruns must be byte-identical.
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from morphdet import cli, evalbench, fusedloss, morphgen, synthfaces, trainer
from morphdet.cli import main, selftest_gradients, selftest_identity_gradients
from morphdet.config import parse_config_file
from morphdet.nncore import LiveRows

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


def test_a_plain_eval_leaves_no_fused_output_of_an_earlier_eval(pipeline, tmp_path):
    """A fused eval, then a plain one into the same directory: the fused files
    are gone, and the rest are the bytes of a plain eval in a fresh one."""
    out = tmp_path / "eval"
    plain = ["eval", "--data-dir", pipeline["data"], "--out-dir", out,
             "--checkpoint", pipeline["train"] / "checkpoint.mdck",
             "--protocol", pipeline["data"] / "protocol-latent.tsv"]
    assert run(plain) == 0
    fresh = _tree_bytes(out)
    shutil.rmtree(out)
    assert run(plain[:-1] + [pipeline["data"] / "protocol-landmark.tsv",
                             "--fr-checkpoint", pipeline["train"] / "fr.mdck"]) == 0
    assert {"scores_fused.tsv", "det_fused-dissimilarity.csv",
            "det_fused-dissimilarity.svg"} <= set(_tree_bytes(out))
    assert run(plain) == 0
    assert _tree_bytes(out) == fresh


def _interrupted(*_args, **_kwargs):
    raise KeyboardInterrupt


@pytest.mark.parametrize("argv, module, step, outputs", [
    (["train", "--seed", 3, "--variant", "fc-v2", "--train-families", "landmark",
      "--epochs", 1, "--batch-size", 7, *NET_FLAGS], trainer, "train",
     ("checkpoint.mdck", "train_report.csv", "train.config")),
    (["train-fr", "--seed", 3, "--epochs", 1, "--batch-size", 6, *NET_FLAGS], trainer,
     "train_identity_classifier",
     ("fr.mdck", "fr_report.csv", "train-fr.config")),
    (["eval", "--protocol", "protocol-landmark.tsv", "--checkpoint", "checkpoint.mdck",
      "--fr-checkpoint", "fr.mdck"], evalbench, "write_scores",
     ("eval.config", "scores_fused.tsv")),
], ids=["train", "train-fr", "eval"])
def test_an_interrupted_run_leaves_no_output_of_an_earlier_one(pipeline, tmp_path, monkeypatch,
                                                               argv, module, step, outputs):
    """A command interrupted before its first write, into a directory that
    holds an earlier run's outputs, leaves none of them to pass as its own:
    no checkpoint, report or config of a training, and no config or fused
    scores of an eval."""
    inputs = {"protocol-landmark.tsv": pipeline["data"], "checkpoint.mdck": pipeline["train"],
              "fr.mdck": pipeline["train"]}
    out = tmp_path / "run"
    argv = [argv[0], "--data-dir", pipeline["data"], "--out-dir", out,
            *[inputs[a] / a if a in inputs else a for a in argv[1:]]]
    assert run(argv) == 0
    assert all((out / name).exists() for name in outputs)
    monkeypatch.setattr(module, step, _interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(argv)
    assert not [name for name in outputs if (out / name).exists()]


def _failing_after(k, write):
    """write_pgm that writes k images, then raises as an interrupt would."""
    written = []

    def write_pgm(path, pixels):
        if len(written) == k:
            raise KeyboardInterrupt
        written.append(path)
        write(path, pixels)

    return write_pgm


# stage -> (the module whose write_pgm it calls, its argv, its image count, the
# files an interrupted rerun must leave none of, and each later command with
# the file it must name as missing)
_DATA_STAGES = {
    "gen-data": (synthfaces, ["gen-data", "--seed", 3, *DATA_FLAGS], 18,
                 ("manifest.tsv", "morphs.tsv", "split.tsv", "protocol-*.tsv", "gen-data.config",
                  "gen-morphs.config", "gen-protocol-*.config"),
                 (("gen-morphs", "manifest.tsv"), ("train", "manifest.tsv"),
                  ("eval", "protocol-landmark.tsv"))),
    "gen-morphs": (morphgen, ["gen-morphs", "--seed", 3, *SIZE_FLAGS], 54,
                   ("morphs.tsv", "protocol-*.tsv", "gen-morphs.config",
                    "gen-protocol-*.config"),
                   (("gen-protocol", "morphs.tsv"), ("train", "morphs.tsv"),
                    ("eval", "protocol-landmark.tsv"))),
}


@pytest.mark.parametrize("stage", sorted(_DATA_STAGES))
@pytest.mark.parametrize("fraction", [0, 1, "half"])
def test_an_interrupted_data_stage_leaves_no_manifest_to_pass_as_current(
        pipeline, tmp_path, monkeypatch, capsys, stage, fraction):
    """A data-directory stage interrupted after k of its images, rerun over a
    complete data directory, leaves neither its manifest nor any derived
    from it, so every later command exits 2 naming the missing file."""
    module, argv, images, removed, later = _DATA_STAGES[stage]
    k = images // 2 if fraction == "half" else fraction
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    assert (data / removed[0]).is_file()
    monkeypatch.setattr(module, "write_pgm", _failing_after(k, module.write_pgm))
    with pytest.raises(KeyboardInterrupt):
        run([*argv, "--data-dir", data])
    monkeypatch.undo()
    assert [p.name for pattern in removed for p in data.glob(pattern)] == []
    commands = {
        "gen-morphs": ["gen-morphs", "--seed", 3, *SIZE_FLAGS],
        "gen-protocol": ["gen-protocol", "--seed", 3, "--family", "landmark"],
        "train": ["train", "--seed", 3, "--out-dir", tmp_path / "train", "--epochs", 1,
                  "--batch-size", 7, *NET_FLAGS],
        "eval": ["eval", "--out-dir", tmp_path / "eval",
                 "--checkpoint", pipeline["train"] / "checkpoint.mdck",
                 "--protocol", data / "protocol-landmark.tsv"],
    }
    capsys.readouterr()
    for command, missing in later:
        assert run([*commands[command], "--data-dir", data]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error:") and missing in err, (command, err)


def test_train_without_a_split_plan_names_it(pipeline, tmp_path, capsys):
    """train reads its identity split from split.tsv and from nowhere else."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    (data / "split.tsv").unlink()
    capsys.readouterr()
    assert run(["train", "--data-dir", data, "--out-dir", tmp_path / "out", "--seed", 3,
                "--epochs", 1, "--batch-size", 7, *NET_FLAGS]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "split.tsv" in err


def test_a_config_lists_the_keys_its_command_takes(pipeline):
    assert set(parse_config_file(pipeline["eval"] / "eval.config")) == set(cli._EVAL_KEYS)
    assert set(parse_config_file(pipeline["train"] / "train.config")) == set(cli._TRAIN_KEYS)


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
    assert "gradient check identity" in out
    assert "metric oracle" in out


def test_identity_gradient_check_passes():
    assert selftest_identity_gradients() < 1e-4


def test_gradient_checks_reach_the_live_row_paths(monkeypatch):
    """Each check has a case in which all 8 hidden units of a layer fire, one
    with 2 <= live < 8 and one with exactly one, and every case passes."""
    fired, errors = set(), []
    weight_gradient, gradient_error = LiveRows.weight_gradient, cli._gradient_error

    def counting(self, g, a_in, dw):
        fired.add(int(np.count_nonzero(g.any(axis=0))))
        weight_gradient(self, g, a_in, dw)

    def recording(units, loss_of):
        errors.append(gradient_error(units, loss_of))
        return errors[-1]

    monkeypatch.setattr(LiveRows, "weight_gradient", counting)
    monkeypatch.setattr(cli, "_gradient_error", recording)
    checks = [(selftest_identity_gradients, (), 3)] + [
        (selftest_gradients, (variant,), 2) for variant in fusedloss.VARIANTS]
    for check, args, n_cases in checks:
        fired.clear()
        errors.clear()
        assert check(*args) == max(errors)
        assert len(errors) == n_cases and max(errors) < 1e-4
        assert {8, 1} <= fired and any(2 <= count < 8 for count in fired)


_MANIFEST = "images/a.pgm\t0\tbonafide\nimages/b.pgm\t1\tbonafide\n"
_PROTOCOL = "p1\timages/a.pgm\timages/b.pgm\tbonafide\n"
_LANDMARKS = "data/images/id0000_v000.pgm.lms"
# a 16-px dataset holding one 8-px image, which training must reject by path
_SMALL_IMAGE = b"P5\n8 8\n255\n" + bytes(range(64))
_MORPH = "data/morphs/morph-lm-00009-a0001-b0004.pgm"
_BONAFIDE = "data/images/id0005_v002.pgm"
_IN_DATA = ["--data-dir", "{tmp}/data"]
_COMPARE = ["compare", "--out-dir", "{tmp}/out", "--protocol"]


@pytest.mark.parametrize("files, argv, code", [
    ({"data/manifest.tsv": "images/a.pgm\tx\tbonafide\n"}, ["gen-morphs"] + _IN_DATA, 2),
    ({"data/manifest.tsv": b"images/a.pgm\t0\t\xff\n"}, ["gen-morphs"] + _IN_DATA, 2),
    ({"data/manifest.tsv": ""}, ["gen-morphs"] + _IN_DATA, 2),
    ({"data/manifest.tsv": _MANIFEST, "data/morphs.tsv": "m.pgm\tx\t1\tmorph-lm\n"},
     ["gen-protocol"] + _IN_DATA, 2),
    ({"data/manifest.tsv": _MANIFEST, "data/morphs.tsv": "", "data/split.tsv": "x\tfirst\n"},
     ["train", "--out-dir", "{tmp}/out"] + _IN_DATA, 2),
    ({"bad.tsv": b"p1\ta\tb\tbonafide\xff\n"}, _COMPARE + ["{tmp}/bad.tsv", "a={tmp}/bad.tsv"], 2),
    ({"protocol.tsv": _PROTOCOL, "bad.tsv": b"p1\t0.5\xff\n"},
     _COMPARE + ["{tmp}/protocol.tsv", "a={tmp}/bad.tsv"], 2),
    ({_LANDMARKS: "1.0 one\n"}, ["gen-morphs"] + _IN_DATA, 2),
    ({_LANDMARKS: b"1.0 \xe9\n"}, ["gen-morphs"] + _IN_DATA, 2),
    ({_LANDMARKS: lambda text: "nan" + text[text.index(" "):]}, ["gen-morphs"] + _IN_DATA, 2),
    ({"data/manifest.tsv": _MANIFEST, "data/morphs.tsv": "",
      "data/split.tsv": "0\tfirst\n0\tsecond\n"},
     ["train", "--out-dir", "{tmp}/out"] + _IN_DATA, 2),
    ({"bad.config": b"seed = 1\xff\n"}, ["gen-data", "--config", "{tmp}/bad.config"], 1),
    ({_MORPH: _SMALL_IMAGE}, ["train", "--out-dir", "{tmp}/out"] + _IN_DATA + NET_FLAGS, 2),
    ({_BONAFIDE: _SMALL_IMAGE}, ["train-fr", "--out-dir", "{tmp}/out", "--batch-size", "6"]
     + _IN_DATA + NET_FLAGS, 2),
], ids=["manifest-identity", "manifest-bytes", "manifest-empty", "morph-manifest-id",
        "split-id", "protocol-bytes", "scores-bytes", "landmark-field", "landmark-bytes",
        "landmark-nan", "split-both-subsets", "config-bytes", "train-image-size",
        "train-fr-image-size"])
def test_malformed_inputs_exit_with_their_code(tmp_path, capsys, files, argv, code):
    data = tmp_path / "data"
    # spoil a file of a real dataset
    if any(name.startswith(("data/images/", "data/morphs/")) for name in files):
        assert run(["gen-data", "--data-dir", data, "--seed", 3] + DATA_FLAGS) == 0
    if any(name.startswith("data/morphs/") for name in files):
        assert run(["gen-morphs", "--data-dir", data, "--seed", 3] + SIZE_FLAGS) == 0
    for name, content in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if callable(content):  # an edit of the file gen-data wrote
            content = content(path.read_text())
        path.write_bytes(content.encode() if isinstance(content, str) else content)
    capsys.readouterr()
    assert run([a.format(tmp=tmp_path) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    for name, content in files.items():
        if content == _SMALL_IMAGE:
            assert name.split("/")[-1] in err and "8x8" in err


def _src_env(**variables):
    """The environment of a subprocess that imports this checkout's package."""
    import morphdet

    src = os.path.dirname(os.path.dirname(os.path.abspath(morphdet.__file__)))
    return dict(os.environ, PYTHONPATH=src, **variables)


def test_cli_import_loads_no_scipy():
    # only the triangulation of gen-morphs needs SciPy; every other command
    # should not pay for importing it
    done = subprocess.run(
        [sys.executable, "-c", "import sys, morphdet.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=_src_env(), capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def _tree_bytes(root):
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Every command's bytes at the desk image size, under one and two BLAS
    threads. The count is set in the subprocess environment only."""
    seeded = ["--seed", "0"]
    commands = [
        ["gen-data", "--n-identities", "48", "--images-per-identity", "8", "--image-size", "32"]
        + seeded,
        ["gen-morphs", "--image-size", "32"] + seeded,
        ["gen-protocol", "--family", "landmark"] + seeded,
        ["train", "--out-dir", "v2", "--variant", "fc-v2", "--train-families", "landmark",
         "--pair-weight", "0.25", "--epochs", "1"] + seeded,
        ["train-fr", "--out-dir", "fr", "--epochs", "1"] + seeded,
        ["eval", "--out-dir", "eval", "--checkpoint", "v2/checkpoint.mdck",
         "--fr-checkpoint", "fr/fr.mdck", "--protocol", "data/protocol-landmark.tsv"],
    ]
    trees = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"blas{threads}"
        cwd.mkdir()
        env = _src_env(OPENBLAS_NUM_THREADS=threads)
        for command in commands:
            subprocess.run([sys.executable, "-m", "morphdet.cli", *command, "--data-dir", "data"],
                           cwd=cwd, env=env, capture_output=True, check=True)
        trees.append(_tree_bytes(cwd))
    one, two = trees
    assert "v2/checkpoint.mdck" in one and "eval/scores_fused.tsv" in one
    assert sorted(one) == sorted(two)
    assert [name for name in sorted(one) if one[name] != two[name]] == []


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


@pytest.mark.parametrize("case", ["image-size", "empty-data-dir", "fr-image-size"])
def test_eval_excludes_the_pairs_it_cannot_score(pipeline, tmp_path, capsys, case):
    from morphdet.evalbench import read_protocol, read_scores

    protocol = pipeline["data"] / "protocol-landmark.tsv"
    entries = read_protocol(protocol)
    data, fr = pipeline["data"], pipeline["train"] / "fr.mdck"
    every_pair = [e.pair_id for e in entries]
    if case == "image-size":  # an 8-px morph in the 16-px dataset
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        spoiled = entries[-1].path_a
        (data / spoiled).write_bytes(_SMALL_IMAGE)
        excluded = [e.pair_id for e in entries if spoiled in (e.path_a, e.path_b)]
        detector_kept = fr_kept = [p for p in every_pair if p not in excluded]
    elif case == "empty-data-dir":
        data = tmp_path / "empty"
        data.mkdir()
        excluded, detector_kept, fr_kept = every_pair, [], []
    else:  # an identity classifier of 24-px images
        small = tmp_path / "small"
        assert run(["gen-data", "--data-dir", small, "--seed", 3, "--n-identities", 6,
                    "--images-per-identity", 3, "--image-size", 24]) == 0
        assert run(["train-fr", "--data-dir", small, "--out-dir", small, "--seed", 3,
                    "--epochs", 1, "--batch-size", 6] + NET_FLAGS) == 0
        fr = small / "fr.mdck"
        excluded, detector_kept, fr_kept = every_pair, every_pair, []
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(["eval", "--data-dir", data, "--out-dir", out,
                "--checkpoint", pipeline["train"] / "checkpoint.mdck",
                "--protocol", protocol, "--fr-checkpoint", fr]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith("excluded ")]
    assert [line.split()[1].rstrip(":") for line in lines] == excluded
    assert f"error: {len(excluded)} protocol entries could not be scored" in err
    if case == "image-size":
        assert all(spoiled in line and "image of 64 pixels" in line for line in lines)
    if case == "fr-image-size":
        assert all("the network takes 576" in line for line in lines)
    # the pairs every scorer kept are scored, fused and measured
    assert [p for p, _ in read_scores(out / "scores.tsv")] == detector_kept
    assert [p for p, _ in read_scores(out / "scores_fused.tsv")] == fr_kept
    assert (out / "metrics.csv").is_file() == bool(fr_kept)
