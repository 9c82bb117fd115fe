"""Golden outputs: the `convergence`, `bound-check`, `integral` and
`selections` CSVs of every fixture at small settings, compared with the
captures under tests/golden/ to 1e-12 (relative above 1).  Refactors may
move the last digits through summation order, nothing more.

Rewrite the captures from the library on the path with

    PYTHONPATH=src python tests/test_golden.py
"""
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from metricfourier import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
TOL = 1e-12

SVF_FIXTURES = ("lines", "balls", "two-branch-sine", "zero-union-sine",
                "step-svf", "constant-pm1")
# bound-check takes the scalar fixtures and the set-valued jump fixtures
# that carry an exact variation function.
BOUND_FIXTURES = ("square-wave", "sawtooth", "step", "lines",
                  "step-svf")
SMALL = {"orders": [4, 16], "x_grid": 3, "depth": 1, "eps": 0.1}

CASES = ([(verb, name) for verb in ("convergence", "integral", "selections")
          for name in SVF_FIXTURES]
         + [("bound-check", name) for name in BOUND_FIXTURES])


def run_case(verb: str, fixture: str, tmp: Path) -> str:
    path = tmp / f"{verb}-{fixture}.json"
    path.write_text(json.dumps(dict(SMALL, fixture=fixture)), encoding="utf-8")
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main([verb, "--config", str(path)])
    assert rc == 0, f"{verb} {fixture} exited with {rc}"
    return buf.getvalue()


def mismatches(got: str, want: str) -> list[str]:
    g_lines, w_lines = got.splitlines(), want.splitlines()
    if len(g_lines) != len(w_lines):
        return [f"{len(g_lines)} lines, golden has {len(w_lines)}"]
    out = []
    for g, w in zip(g_lines, w_lines):
        gf, wf = g.split(","), w.split(",")
        ok = len(gf) == len(wf)
        for a, b in zip(gf, wf):
            if a != b:
                try:
                    ok &= abs(float(a) - float(b)) <= TOL * max(1.0, abs(float(b)))
                except ValueError:
                    ok = False
        if not ok:
            out.append(f"{g!r} vs golden {w!r}")
    return out


@pytest.mark.parametrize("verb,fixture", CASES)
def test_golden(verb, fixture, tmp_path):
    want = (GOLDEN / f"{verb}-{fixture}.csv").read_text(encoding="utf-8")
    got = run_case(verb, fixture, tmp_path)
    assert not mismatches(got, want)


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for verb, fixture in CASES:
            text = run_case(verb, fixture, Path(tmp))
            (GOLDEN / f"{verb}-{fixture}.csv").write_text(text, encoding="utf-8")
            sys.stdout.write(f"{verb}-{fixture}: {len(text.splitlines()) - 1} rows\n")
