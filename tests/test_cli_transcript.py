"""The CLI contract as a transcript: each case of cli_transcript.txt runs
cli.main in a temporary directory holding FILES, and must give exactly the
exit code, stdout and stderr written there, and create exactly the paths
listed there, each file with the digest of its bytes. No output byte goes
through BLAS, so the transcript holds for every kernel OpenBLAS picks;
test_cli reruns its file-writing cases under each one."""

import contextlib
import csv
import hashlib
import io
import shlex
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from conftest import unit_sphere_cloud
from noisebench.cli import main

_GRID = [f"{i % 4} {i // 4 % 4} {i // 16}" for i in range(32)]
_PREDS = "sample_id,true_label,p_0,p_1\n"
_SUMMARY = "sample_id,label,mean_sigma,mean_mu,outlier_count\n"
_BIG = "".join(f"{i % 16} {i // 16 % 16} {i // 256}\n" for i in range(2048))  # > 8 KiB
_LONG = "s" * 200_000  # past csv's 131,072-character field limit

# the fixture files, by the relative paths the transcript names; a str is
# written as UTF-8, bytes as they are
FILES = {
    "m.csv": "sample_id,label,path\ns0,0,c.xyz\n",
    "c.xyz": "".join(f"{line}\n" for line in _GRID),
    "m_nan.csv": "sample_id,label,path\ns0,0,nan.xyz\n",
    "nan.xyz": "".join(f"{line}\n" for line in [*_GRID[:2], "2 nan 0", *_GRID[3:]]),
    "m_gone.csv": "sample_id,label,path\ns0,0,c.xyz\ns1,0,gone.xyz\n",
    "m_two.csv": "sample_id,label,path\ns3,0,gone3.xyz\ns1,0,gone1.xyz\ns2,0,c.xyz\n",
    "m_unsafe.csv": "sample_id,label,path\ns0,0,c.xyz\n../x,0,c.xyz\n",
    "m_up.csv": "sample_id,label,path\ns0,0,c.xyz\n../../x,0,c.xyz\n",
    "m_dup.csv": "sample_id,label,path\ns0,0,c.xyz\ns0,1,c.xyz\n",
    "m_bad.csv": b"sample_id,label,path\ns0,0,c.xyz\n\xff\n",
    "m_big.csv": "sample_id,label,path\ns0,0,big.xyz\n",
    "big.xyz": _BIG.encode() + b"\xff\n",
    "m_long.csv": f"sample_id,label,path\n{_LONG},0,c.xyz\n",
    "out_all.cfg": "p_out=1.0\n",
    "rec.cfg": "a=0.005\nb=0.002\nc=2.0\nk=0.01\np_out=0.1\nglobal_seed=3\n",
    "a_neg.cfg": "a=-1\n",
    "seed_neg.cfg": "a=0.01\nglobal_seed=-5\n",
    "no_eq.cfg": "a 0.01\n",
    "bad.cfg": b"a=0.01\n\xff\n",
    "p.csv": _PREDS + "a,0,0.9,0.1\nb,1,0.3,0.7\n",
    "p_sum.csv": _PREDS + "a,0,0.5,0.5\nb,1,0.75,0.75\n",
    "p_nan.csv": _PREDS + "a,0,0.5,0.5\nb,0,nan,1.0\n",
    "p_label.csv": _PREDS + "a,0,0.5,0.5\nb,2,0.5,0.5\n",
    "p_quoted.csv": _PREDS + '"a",0,0.5,0.5\nb,1,0.75,0.75\n',
    "p_header.csv": _PREDS,
    "p_header_quoted.csv": '"sample_id",true_label,p_0,p_1\n',
    "p_ghost.csv": _PREDS + "a,0,0.9,0.1\nghost,1,0.3,0.7\n",
    "p_dup.csv": _PREDS + "a,0,0.9,0.1\na,1,0.3,0.7\n",
    "p_bad.csv": _PREDS.encode() + b"a,0,0.9,0.1\n\xff\n",
    "p_long.csv": _PREDS + f"{_LONG},0,0.9,0.1\n",
    "s.csv": _SUMMARY + "a,0,0.01,0.0,0\nb,1,0.01,0.0,0\n",
    "s_nan.csv": _SUMMARY + "a,0,0.01,0.0,0\nb,1,nan,0.0,0\n",
}


def _csv(rows):
    """rows as csv.writer writes them, each ending in "\r\n"."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


# a heavy-tier run's inputs: four clouds of 300 sphere points, as write_cloud
# writes them
FILES["g.csv"] = _csv([["sample_id", "label", "path"],
                       *([f"s{i:04d}", i % 3, f"g{i}.xyz"] for i in range(4))])
FILES.update({f"g{i}.xyz": "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in
                                   unit_sphere_cloud(300, 90 + i).tolist())
              for i in range(4)})


def _score_tier(rng, ids, noise):
    """One tier's 40-class predictions and rounded sigmas, as CSV text.

    Every third row puts its confidence exactly on a bin edge (k/15, or 0.5
    split between two tied classes); sigmas are rounded to 4 decimals so
    pooled sigmas tie across and within tiers.
    """
    rows, sigmas = [["sample_id", "true_label", *(f"p_{i}" for i in range(40))]], {}
    for i, sid in enumerate(ids):
        top = int(rng.integers(40))
        if i % 6 == 0:
            conf = int(rng.integers(2, 16)) / 15
            probs = np.insert((1.0 - conf) * rng.dirichlet([4.0] * 39), top, conf)
        elif i % 6 == 3:
            conf = 0.5
            probs = np.zeros(40)
            probs[[top, (top + 1 + int(rng.integers(39))) % 40]] = 0.5
        else:
            probs = rng.dirichlet([0.3] * 40)
            conf = probs.max()
            top = int(probs.argmax())
        label = top if rng.random() < conf else int(rng.integers(40))
        rows.append([sid, label, *map(repr, probs.tolist())])
        sigma = noise * (1.5 - conf) + abs(rng.normal(0.0, 0.002))
        sigmas[sid] = round(float(sigma), 4)
    summary = [[sid, 0, repr(sigma), "0.0", 0] for sid, sigma in sorted(sigmas.items())]
    return _csv(rows), _csv([_SUMMARY[:-1].split(","), *summary])


# two tiers of 180 scored samples, drawn with numpy 2.4.6
_rng = np.random.default_rng(96)
_ids = [f"s{i:03d}" for i in _rng.permutation(180)]
FILES["p_a.csv"], FILES["s_a.csv"] = _score_tier(_rng, _ids, 0.01)
FILES["p_b.csv"], FILES["s_b.csv"] = _score_tier(_rng, _ids, 0.03)


class _Case(NamedTuple):
    argv: list
    code: int
    out: str
    err: str
    made: str


def _cases(path=Path(__file__).with_name("cli_transcript.txt")):
    """The transcript's cases: "$ " and an argv split as a POSIX shell
    would, "exit " and the code, then each stdout line after "| ", each
    stderr line after "! " and each created path after "+ ". Other lines
    are comments."""
    cases = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ "):
            cases.append(_Case(shlex.split(line[2:]), None, "", "", ""))
        elif line.startswith("exit "):
            cases[-1] = cases[-1]._replace(code=int(line[5:]))
        elif line[:1] == "|":
            cases[-1] = cases[-1]._replace(out=cases[-1].out + line[2:] + "\n")
        elif line[:1] == "!":
            cases[-1] = cases[-1]._replace(err=cases[-1].err + line[2:] + "\n")
        elif line[:1] == "+":
            cases[-1] = cases[-1]._replace(made=cases[-1].made + line[2:] + "\n")
    return cases


def _run(case):
    """The case as it runs in the current directory, after FILES are written
    there: every path it created, sorted, a directory with a trailing / and
    a file with the first 16 hex digits of its SHA-256."""
    for name, data in FILES.items():
        Path(name).write_bytes(data if isinstance(data, bytes) else data.encode())
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(case.argv)
    made = sorted(f"{p.as_posix()}/" if p.is_dir() else
                  f"{p.as_posix()} sha256={hashlib.sha256(p.read_bytes()).hexdigest()[:16]}"
                  for p in Path().rglob("*") if p.as_posix() not in FILES)
    return case._replace(code=code, out=out.getvalue(), err=err.getvalue(),
                         made="".join(f"{path}\n" for path in made))


@pytest.mark.parametrize("case", _cases(), ids=lambda case: shlex.join(case.argv)[:60])
def test_cli_transcript(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    assert _run(case) == case
