import re
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_rho_curve_scalar(tmp_path, monkeypatch, capsys):
    out = tmp_path / "rho_curve.csv"
    monkeypatch.setattr(sys, "argv", ["rho_curve.py",
                                      str(SCRIPTS / "configs" / "scalar_two_point.yaml"),
                                      str(out)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "rho_curve.py"), run_name="__main__")
    assert exc.value.code == 0
    curve = np.loadtxt(out, delimiter=",")
    assert curve.shape == (49, 3)
    kappa, rho = curve[:, 0], curve[:, 1]
    # rho(kappa) = E M^kappa crosses 1 at the tail index kappa = 1
    assert np.all(rho[kappa < 0.9] < 1.0) and np.all(rho[kappa > 1.1] > 1.0)
    assert "log-convexity margin" in capsys.readouterr().out


def test_limit_law_demo(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["limit_law_demo.py", "200"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "limit_law_demo.py"), run_name="__main__")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for exp in range(10, 15):
        assert re.search(rf"^n = 2\^{exp} +sup \|ecf - cf\| = \d", out, re.MULTILINE)


def test_run_scalar_pipeline(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["run_scalar_pipeline.py", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "run_scalar_pipeline.py"), run_name="__main__")
    assert exc.value.code == 0
    assert (tmp_path / "report.json").exists()
    assert "kappa     = " in capsys.readouterr().out
