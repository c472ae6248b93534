"""Smoke runs of the example scripts, in-process and at small sizes."""

import runpy
import sys
from pathlib import Path

from bncsim.signal_model import DetectorParams

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_compare_receivers(monkeypatch, capsys):
    lines = run_script(
        "compare_receivers.py", ["--gates", "20000", "--flux", "0.1,500"], monkeypatch, capsys
    )
    assert len(lines) == 3
    flux, _, doubles, qber, flagged = lines[2].split()
    assert flux == "500"
    assert float(doubles) > 0.4 and float(qber) < 0.01 and float(flagged) > 0.99


def test_sd_blinding_demo(monkeypatch, capsys):
    lines = run_script("sd_blinding_demo.py", [], monkeypatch, capsys)
    events = [line.split()[-1] for line in lines if line]
    assert events.count("strong_rise") == 2
    assert events.count("delayed_fall") == 2
    assert events.count("blinding_detected") == 9
    # the 11 bright gates rail and the empty gates read 0: a rise or a
    # flag reads its own gate's level, a fall the empty gate after a pulse
    t_strong = round(DetectorParams.default().t_strong, 4)
    gates = [line.split()[1:] for line in lines if line.lstrip()[:1].isdigit()]
    assert {(event, float(level)) for level, event in gates} == {
        ("no_event", 0.0),
        ("delayed_fall", 0.0),
        ("strong_rise", t_strong),
        ("blinding_detected", t_strong),
    }
    assert sum(float(level) > 0.0 for level, _ in gates) == 11
