"""The configs the project ships and the benchmark writes pass the CLI's reader.

The reader refuses every key it does not know, so a config that carries a
stray key stops a command before it runs.  These tests read every
``configs/*.json`` and the tiny-size ``config.json`` (and ``surface.json``)
that each CLI workload of bench/workloads.py writes, through the same
section readers as the commands that fit them, without running those
commands.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from rslv_lab import cli

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = [f"{verb}-{kind}" for verb in ("solve", "simulate") for kind in ("fbm", "rslv")]


def fits(command: str, cfg: dict) -> bool:
    """Whether ``cfg`` has the sections ``command`` reads."""
    needs = {"model", "horizon"} | ({"grid", "pds"} if command.startswith("solve") else {"sim"})
    if command.endswith("rslv"):
        needs.add("surface")
    return needs <= set(cfg)


def read_sections(command: str, path: Path) -> None:
    """Every section that ``command`` reads from the config at ``path``."""
    cfg = cli._load_config(str(path))
    cli._section(cfg, "model")
    if command.endswith("rslv"):
        cli._surface_from(cfg, str(path.parent))
    cli._section(cfg, "horizon")
    if command.startswith("solve"):
        cli._section(cfg, "grid")
        cli._section(cfg, "pds")
    else:
        cli._section(cfg, "sim")
    cli._section(cfg, "initial")


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")),
                         ids=lambda p: p.name)
def test_shipped_config_is_read(path):
    cfg = json.loads(path.read_text())
    commands = [c for c in COMMANDS if fits(c, cfg)]
    assert commands
    for command in commands:
        read_sections(command, path)


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads().WORKLOADS


@pytest.mark.parametrize("name", [n for n, w in WORKLOADS.items() if hasattr(w, "command")])
@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_config_is_read(tmp_path, name, seed):
    workload = WORKLOADS[name](seed, "tiny", str(tmp_path))
    assert fits(workload.command, workload.cfg)
    read_sections(workload.command, Path(workload.config))
