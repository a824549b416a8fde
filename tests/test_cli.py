"""End-to-end tests for the command-line interface."""

import csv
import functools
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import tree_digest, unit_sphere_cloud, write_benchmark_manifest
from test_cli_transcript import _Case, _cases
import noisebench
from noisebench import (DEFAULT_NORMAL_K, DEFAULT_SENSOR, corrupt_cloud, estimate_normals,
                        read_annotated, read_sigma_summary, sample_seed, tier_params)
from noisebench.cli import main
from noisebench.noise import _STREAM_PERTURB, _substream


def write_predictions(path, rows):
    """rows: (sample_id, true_label, probs) triples, three classes each."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "true_label", "p_0", "p_1", "p_2"])
        for sid, label, probs in rows:
            writer.writerow([sid, label] + [repr(float(p)) for p in probs])


def test_corrupt_end_to_end(tmp_path, capsys):
    manifest = write_benchmark_manifest(tmp_path, 6, 48, seed=80)
    code = main(["corrupt", str(manifest), "light", str(tmp_path / "out"),
                 "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "samples=6" in out and "failures=0" in out

    tier_dir = tmp_path / "out" / "light"
    assert (tier_dir / "summary.csv").exists()
    assert len(list(tier_dir.glob("*.xyzn"))) == 6

    # identical rerun, different worker count: byte-identical tree
    main(["corrupt", str(manifest), "light", str(tmp_path / "out2"),
          "--seed", "7", "--threads", "4"])
    assert tree_digest(tier_dir) == tree_digest(tmp_path / "out2" / "light")


def _golden_stage(stage, i):
    """One stage's array for sample s{i:04d} of the transcript's heavy-tier
    run, whose cloud file g{i}.xyz holds unit_sphere_cloud(300, 90 + i) exactly."""
    cloud = unit_sphere_cloud(300, seed=90 + i)
    seed = sample_seed(11, f"s{i:04d}")
    if stage == "normal_draws":
        return _substream(seed, _STREAM_PERTURB).standard_normal(len(cloud))
    if stage == "normals":
        return estimate_normals(cloud, DEFAULT_NORMAL_K, DEFAULT_SENSOR).vectors
    return corrupt_cloud(cloud, DEFAULT_SENSOR, tier_params("heavy"), DEFAULT_NORMAL_K,
                         seed).sigma


def _stage_digest(stage):
    h = hashlib.sha256()
    for i in range(4):
        h.update(_golden_stage(stage, i).astype("<f8").tobytes())
    return h.hexdigest()


_GOLDEN_STAGE_DIGESTS = {
    "normal_draws": "a066349ef48377c7801361222afdb8d94ce1e3b89125e7ea682beea7fd57feb7",
    "normals": "0f567306497deb24b3833af8a22b73d1e2ed54d8b474ae04f0c9bf0d332bc409",
    "sigma": "e6fb0b74b05c48cb3cc6da128995d44ed7909ac33ea436a85e38ef90610e1379",
}


@pytest.mark.parametrize("stage", list(_GOLDEN_STAGE_DIGESTS))
def test_corrupt_golden_stage_digest(stage):
    # that run's stages, frozen one by one so that a mismatch names its
    # stage: the Philox normal draws, the normals (six-sum covariance and
    # Jacobi) and sigma through them. No byte goes through BLAS, so they
    # hold on every CPU (test_golden_digests_on_every_kernel); the Philox
    # normal stream is only stable within one numpy release, so a mismatch
    # after a numpy upgrade is expected and must be re-pinned
    assert _stage_digest(stage) == _GOLDEN_STAGE_DIGESTS[stage]


def test_corrupt_seed_changes_output(tmp_path):
    manifest = write_benchmark_manifest(tmp_path, 2, 48, seed=81)
    main(["corrupt", str(manifest), "moderate", str(tmp_path / "a"), "--seed", "1"])
    main(["corrupt", str(manifest), "moderate", str(tmp_path / "b"), "--seed", "2"])
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")


def test_corrupt_with_tier_config_file(tmp_path):
    manifest = write_benchmark_manifest(tmp_path, 2, 48, seed=82)
    cfg = tmp_path / "all_outliers.cfg"
    cfg.write_text("a=0.01\np_out=1.0\nglobal_seed=3\n")
    assert main(["corrupt", str(manifest), str(cfg), str(tmp_path / "out")]) == 0
    cols = read_annotated(tmp_path / "out" / "custom" / "s0000.xyzn")
    assert cols.outlier.all()


def test_corrupt_missing_cloud_fails(tmp_path, capsys):
    manifest = write_benchmark_manifest(tmp_path, 2, 48, seed=84)
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("gone,0,clouds/gone.xyz\n")
    assert main(["corrupt", str(manifest), "light", str(tmp_path / "out")]) == 1

    # keep-going still exits 1 but writes the good samples
    code = main(["corrupt", str(manifest), "light", str(tmp_path / "out2"),
                 "--keep-going"])
    assert code == 1
    assert "failed gone" in capsys.readouterr().err
    assert len(list((tmp_path / "out2" / "light").glob("*.xyzn"))) == 2


def test_corrupt_sensor_and_scale_flags(tmp_path):
    manifest = write_benchmark_manifest(tmp_path, 1, 48, seed=85)
    code = main(["corrupt", str(manifest), "moderate", str(tmp_path / "out"),
                 "--sensor", "0,-4,0", "--scale", "2.0", "--normal-k", "8"])
    assert code == 0
    # farther sensor and doubled coordinates mean larger ranges, so the
    # range-driven part of sigma must exceed the default setup's
    main(["corrupt", str(manifest), "moderate", str(tmp_path / "ref")])
    far = read_sigma_summary(tmp_path / "out" / "moderate" / "summary.csv")
    ref = read_sigma_summary(tmp_path / "ref" / "moderate" / "summary.csv")
    assert far["s0000"] > ref["s0000"]


# the transcript pins the message and created paths of every invalid
# override; this case checks the same exit through an in-process run
@pytest.mark.parametrize("flags", [["--normal-k", "2"]])
def test_corrupt_invalid_override_is_usage_error(tmp_path, capsys, flags):
    manifest = write_benchmark_manifest(tmp_path, 1, 48, seed=88)
    out = tmp_path / "out"
    assert main(["corrupt", str(manifest), "light", str(out)] + flags) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def _run_python(*args, **env):
    """Run Python in a subprocess, where pytest cannot turn a warning into an
    error, with the variables in env set (None unsets one); src, then any
    PYTHONPATH, is on its path."""
    src = str(Path(noisebench.__file__).parents[1])
    full = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          env={k: v for k, v in full.items() if v is not None}, timeout=120)


def _run_cli(*args):
    return _run_python("-m", "noisebench.cli", *args)


def test_corrupt_overflowing_sample_mean_fails(tmp_path):
    # every sigma near 1e307 is finite but their sum is not
    manifest = write_benchmark_manifest(tmp_path, 3, 48, seed=92)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("a=1e307\n")
    runs = {}
    for out, flags in (("out", []), ("kept", ["--keep-going"])):
        runs[out] = _run_cli("corrupt", manifest, cfg, tmp_path / out, *flags)
        assert runs[out].returncode == 1
        assert "inf" not in runs[out].stdout + runs[out].stderr
        assert "Warning" not in runs[out].stderr
    assert list((tmp_path / "out").iterdir()) == []
    assert "failures=3" in runs["kept"].stdout
    assert [p.name for p in (tmp_path / "kept" / "custom").iterdir()] == ["summary.csv"]
    assert "inf" not in (tmp_path / "kept" / "custom" / "summary.csv").read_text()


def test_corrupt_run_mean_of_huge_sample_means_is_finite(tmp_path):
    # each sample mean is 9e306, but 20 of them sum past the float range
    manifest = write_benchmark_manifest(tmp_path, 20, 17, seed=93)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("a=9e306\n")
    run = _run_cli("corrupt", manifest, cfg, tmp_path / "out")
    assert run.returncode == 0
    assert "mean_sigma=9e+306" in run.stdout
    assert run.stderr == ""


def test_evaluate_end_to_end(tmp_path, capsys):
    manifest = write_benchmark_manifest(tmp_path, 4, 48, seed=86)
    main(["corrupt", str(manifest), "light", str(tmp_path / "out"), "--seed", "5"])
    summary = tmp_path / "out" / "light" / "summary.csv"

    preds = tmp_path / "preds.csv"
    write_predictions(preds, [
        ("s0000", 0, [0.8, 0.1, 0.1]),
        ("s0001", 1, [0.1, 0.7, 0.2]),
        ("s0002", 2, [0.2, 0.2, 0.6]),
        ("s0003", 0, [0.3, 0.4, 0.3]),
    ])
    code = main(["evaluate", str(preds), str(summary), "--bins", "10",
                 "--out", str(tmp_path / "report")])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy=0.75" in out
    assert (tmp_path / "report" / "report.txt").exists()
    assert (tmp_path / "report" / "curve.csv").exists()


def test_evaluate_zero_noise_marker(tmp_path, capsys):
    manifest = write_benchmark_manifest(tmp_path, 2, 48, seed=87)
    main(["corrupt", str(manifest), "none", str(tmp_path / "out")])
    preds = tmp_path / "preds.csv"
    write_predictions(preds, [
        ("s0000", 0, [0.9, 0.05, 0.05]),
        ("s0001", 1, [0.2, 0.7, 0.1]),
    ])
    code = main(["evaluate", str(preds),
                 str(tmp_path / "out" / "none" / "summary.csv")])
    assert code == 0
    assert "pearson_r=undefined(zero_variance)" in capsys.readouterr().out


def test_stratify_end_to_end(tmp_path, capsys):
    preds_a = tmp_path / "preds_a.csv"
    write_predictions(preds_a, [(f"a{i}", 0, [0.8, 0.15, 0.05]) for i in range(4)])
    preds_b = tmp_path / "preds_b.csv"
    write_predictions(preds_b, [(f"b{i}", 1, [0.6, 0.3, 0.1]) for i in range(4)])

    def sigma_csv(path, ids, start):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id", "label", "mean_sigma", "mean_mu",
                             "outlier_count"])
            for i, sid in enumerate(ids):
                writer.writerow([sid, 0, repr(start + 0.001 * i), "0.0", 0])

    sig_a = tmp_path / "sig_a.csv"
    sigma_csv(sig_a, [f"a{i}" for i in range(4)], 0.001)
    sig_b = tmp_path / "sig_b.csv"
    sigma_csv(sig_b, [f"b{i}" for i in range(4)], 0.011)

    code = main(["stratify", "--preds", str(preds_a), str(preds_b),
                 "--sigmas", str(sig_a), str(sig_b),
                 "--quartiles", "2", "--out", str(tmp_path / "strat")])
    assert code == 0
    lines = (tmp_path / "strat" / "stratified.csv").read_text().splitlines()
    assert lines[0] == "quartile,sigma_lo,sigma_hi,count,ece"
    assert len(lines) == 3
    q0 = lines[1].split(",")
    assert q0[3] == "4"
    # low-sigma group is tier A: all correct at confidence 0.8
    assert float(q0[4]) == pytest.approx(0.2, abs=1e-12)


# the transcript cases that write a file, and so pin its bytes
_FILE_CASES = [case for case in _cases() if "sha256=" in case.made]

_GOLDEN_DIGESTS = """
import json, os, sys, tempfile
sys.path.insert(0, sys.argv[1])
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from conftest import _openblas_core
from test_cli import _FILE_CASES, _GOLDEN_STAGE_DIGESTS, _stage_digest
from test_cli_transcript import _run
runs = []
for case in _FILE_CASES:
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        runs.append(_run(case))
        os.chdir(sys.argv[1])
digests = {stage: _stage_digest(stage) for stage in _GOLDEN_STAGE_DIGESTS}
dispatched = [name for name in __cpu_dispatch__ if __cpu_features__[name]]
print(json.dumps([_openblas_core(), dispatched, digests, runs]))
"""

# OpenBLAS core types by the instructions they need, as the core OpenBLAS
# picks unforced for the CPU names them; a build without its own Zen or
# Prescott kernels reports Haswell or Katmai for those
_AVX512_CORES = {"SkylakeX", "Cooperlake", "SapphireRapids"}
_AVX2_CORES = _AVX512_CORES | {"Haswell", "Zen"}
_FORCED_CORES = {
    "SkylakeX": (_AVX512_CORES, {"SkylakeX"}),
    "Haswell": (_AVX2_CORES, {"Haswell"}),
    "Zen": (_AVX2_CORES, {"Zen", "Haswell"}),
    "Prescott": (None, {"Prescott", "Katmai"}),  # any x86-64 CPU
}
# numpy's SIMD dispatch cut back to the X86_V2 baseline
_BASELINE_DISPATCH = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


@functools.lru_cache(maxsize=None)
def _unforced_core():
    """The OpenBLAS core a fresh interpreter picks for this CPU."""
    run = _run_python("-c", "from conftest import _openblas_core; print(_openblas_core())",
                      PYTHONPATH=str(Path(__file__).parent), OPENBLAS_CORETYPE=None)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


@pytest.mark.parametrize("kernel", [*_FORCED_CORES, "X86_V2"])
def test_golden_digests_on_every_kernel(kernel):
    # the stage digests above and every transcript case that writes a file,
    # run in a fresh interpreter under each OpenBLAS core type and under
    # numpy's baseline SIMD dispatch, must give the pinned bytes: no output
    # byte may depend on the CPU. A core type this CPU cannot execute is
    # skipped by name, never passed
    x86 = platform.machine().lower() in ("x86_64", "amd64")
    if kernel == "X86_V2":
        if not x86:
            pytest.skip("numpy's X86_V2 dispatch needs an x86-64 CPU")
        env, loads = {"NPY_DISABLE_CPU_FEATURES": _BASELINE_DISPATCH}, None
    else:
        needs, loads = _FORCED_CORES[kernel]
        core = _unforced_core()
        if not x86 or core == "unknown" or (needs is not None and core not in needs):
            pytest.skip(f"OpenBLAS core {kernel} cannot run where OpenBLAS picks {core}")
        env = {"OPENBLAS_CORETYPE": kernel}
    run = _run_python("-c", _GOLDEN_DIGESTS, Path(__file__).parent,
                      **{"OPENBLAS_CORETYPE": None, **env})
    assert run.returncode == 0, run.stderr
    core, dispatched, digests, runs = json.loads(run.stdout.splitlines()[-1])
    assert loads is None or core in loads, f"{kernel} loaded OpenBLAS core {core}"
    assert kernel != "X86_V2" or dispatched == [], f"numpy still dispatches {dispatched}"
    assert digests == _GOLDEN_STAGE_DIGESTS
    assert [_Case(*run) for run in runs] == _FILE_CASES


_NO_NUMPY = """
import contextlib, io, sys

def check(step):
    assert "numpy" not in sys.modules, f"numpy loaded by {step}"
    assert "dataclasses" not in sys.modules, f"dataclasses loaded by {step}"
    assert "pathlib" not in sys.modules, f"pathlib loaded by {step}"

check("interpreter start")
import noisebench
check("import noisebench")
from noisebench.cli import main
check("import noisebench.cli")
for argv, code in [(["params", "moderate"], 0), (["--help"], 0),
                   *(([cmd, "--help"], 0) for cmd in ("corrupt", "evaluate", "stratify",
                                                       "params")),
                   ([], 2), (["params"], 2), (["params", "brutal"], 2),
                   (["evaluate", "p.csv", "s.csv", "--bins", "0"], 2),
                   (["corrupt", "m.csv", "light", "out", "--sensor", "1,2"], 2),
                   (["corrupt", "m.csv", "nope", "out"], 2)]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == code, argv
    check(argv)
"""


def test_cli_without_data_loads_no_numpy_or_dataclasses():
    # params, --help and usage errors touch no array, so they must start
    # without paying for numpy's import, nor for the inspect/ast/tokenize
    # chain that dataclasses loads, nor for pathlib; -S keeps out what the
    # site module and its .pth files load
    run = _run_python("-S", "-c", _NO_NUMPY)
    assert run.returncode == 0, run.stderr


_PACKAGE_NAMES = """
    AnnotatedCloud CalibrationBin DEFAULT_NORMAL_K DEFAULT_SENSOR DegenerateRay
    EmptyCloud EmptyInput EvalReport GenerationError GenerationSummary
    InsufficientPoints Manifest MissingSigma NoiseBenchError NoiseParams NormalEstimate
    ParseError Predictions QuartileEce SampleEntry TIER_NAMES TierConfig TooFewValues
    UnknownTier ZeroVariance accuracy angle_factor bias_mu bounding_box corrupt_cloud
    ece estimate_normals evaluate generate_benchmark incidence_cosine inject_outliers
    pearson perturb_points point_sigma preset_config quartile_bins range_to_sensor
    read_annotated read_cloud read_manifest read_predictions read_sigma_summary
    read_tier_config reliability_curve sample_seed sigma_range stratified_ece
    tier_params uncertainty_correlation write_annotated write_cloud
""".split()

_SUBMODULE_ATTRIBUTES = """
import sys
import noisebench
for name in ("errors", "geometry", "metrics", "noise", "pipeline"):
    assert getattr(noisebench, name) is sys.modules["noisebench." + name], name
"""


def test_package_surface_loads_on_first_use():
    assert sorted(noisebench.__all__) == sorted(_PACKAGE_NAMES)
    for name in noisebench.__all__:
        obj = getattr(noisebench, name)
        home = sys.modules[getattr(obj, "__module__", "noisebench.tiers")]
        assert getattr(home, name) is obj, name
    assert noisebench.pipeline.TIER_NAMES is noisebench.TIER_NAMES
    assert noisebench.noise.NoiseParams is noisebench.NoiseParams
    with pytest.raises(AttributeError, match="no_such_name"):
        noisebench.no_such_name
    namespace = {}
    exec("from noisebench import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(noisebench, name) for name in _PACKAGE_NAMES}
    # a fresh interpreter, where no submodule is loaded before it is asked for
    run = _run_python("-c", _SUBMODULE_ATTRIBUTES)
    assert run.returncode == 0, run.stderr
