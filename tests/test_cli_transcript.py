"""The CLI contract as a transcript: each case of cli_transcript.txt runs
cli.main in a temporary directory holding FILES, and must give exactly the
exit code, stdout and stderr written there, and create exactly the paths
listed there. No checked output may depend on a BLAS result, so the
transcript holds for every kernel OpenBLAS picks."""

import shlex
from pathlib import Path
from typing import NamedTuple

import pytest

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
    return [pytest.param(case, id=shlex.join(case.argv)[:60]) for case in cases]


@pytest.mark.parametrize("case", _cases())
def test_cli_transcript(case, tmp_path, monkeypatch, capsys):
    for name, data in FILES.items():
        (tmp_path / name).write_bytes(data if isinstance(data, bytes) else data.encode())
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    code = main(case.argv)
    out, err = capsys.readouterr()
    # every path the case created, sorted, each directory with a trailing /
    made = sorted(p.relative_to(tmp_path).as_posix() + "/" * p.is_dir()
                  for p in tmp_path.rglob("*"))
    made = "".join(f"{path}\n" for path in made if path not in FILES)
    assert (code, out, err, made) == (case.code, case.out, case.err, case.made)
