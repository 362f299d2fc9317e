"""Callers outside the package still match it.

The benchmark's tracer wraps layers by name, its workloads and the scripts
read reconkit attributes, build its config dataclasses (`TrainConfig`,
`RimCellConfig`, `CascadeConfig`, `UnetConfig`, `DeskConfig`) and call its
functions (`save_trained`, `method_checkpoint`, `train`, ...).  A rename or a
deleted field breaks them without breaking any test of the package, and
perfbench's own self-test is not part of the tier-1 suite, so they are
checked here.
"""

import ast
import importlib
import importlib.util
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest


ROOT = Path(__file__).resolve().parents[1]
CALLERS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def test_every_traced_layer_resolves():
    # load perfbench/spans.py as a file: perfbench is not a package
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for owner, attr, name, _count in spans.LAYERS:
        assert callable(getattr(owner, attr, None)), name


def _imported(tree: ast.Module) -> dict:
    """Each name a file binds with `from reconkit... import name`, and its object."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "reconkit":
            for alias in node.names:
                try:    # a submodule, as in `from reconkit import training`
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    obj = getattr(importlib.import_module(node.module), alias.name, None)
                assert obj is not None, f"reconkit has no {node.module}.{alias.name}"
                names[alias.asname or alias.name] = obj
    return names


def _resolve(node, names: dict):
    """The reconkit object an expression such as `training.TrainConfig` names, or None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, names)
        if owner is not None:
            assert hasattr(owner, node.attr), f"reconkit has no {ast.unparse(node)}"
            return getattr(owner, node.attr)
    return None


@pytest.mark.parametrize("path", CALLERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_reconkit_names_and_train_config_keywords_resolve(path):
    """Every reconkit name resolves, and every call of a reconkit function or class
    binds its positional count and keyword names to the callee's signature."""
    tree = ast.parse(path.read_text())
    names = _imported(tree)
    for node in ast.walk(tree):
        _resolve(node, names)
        callee = _resolve(node.func, names) if isinstance(node, ast.Call) else None
        unpacked = isinstance(node, ast.Call) and (
            any(isinstance(a, ast.Starred) for a in node.args)
            or any(k.arg is None for k in node.keywords))
        if callable(callee) and not unpacked:
            try:
                inspect.signature(callee).bind_partial(*node.args,
                                                       **{k.arg: k for k in node.keywords})
            except TypeError as exc:
                pytest.fail(f"line {node.lineno}: {ast.unparse(node.func)}: {exc}")


def _run_script(path: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, str(path), *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("path", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_script_help_exits_zero(path):
    done = _run_script(path, "--help")
    assert done.returncode == 0, done.stderr


def test_desk_script_names_a_bad_config_before_any_work(tmp_path):
    out = tmp_path / "desk"
    done = _run_script(ROOT / "scripts" / "run_desk_experiment.py", "--steps", "0",
                       "--out", str(out))
    assert done.returncode == 2
    assert done.stderr.endswith("error: steps must be at least 1, got 0\n")
    assert not out.exists()


def test_dc_comparison_reports_every_row():
    done = _run_script(ROOT / "scripts" / "compare_dc_modes.py",
                       "--size", "16", "--steps", "3", "--n-test", "2")
    assert done.returncode == 0, done.stderr
    table = {}
    for line in done.stdout.splitlines():
        words = line.split()
        if len(words) == 4 and words[0] != "method":
            table[words[0]] = words[1:]
    assert set(table) == {"zerofill", "cs", "cirim-implicit", "cirim-explicit", "varnet"}
    for name, (ssim, _psnr, params) in table.items():
        assert math.isfinite(float(ssim)), name
        learned = name not in ("zerofill", "cs")
        assert (int(params) > 0) == learned, name


def test_mask_gallery_audits_every_mask_it_writes(tmp_path):
    done = _run_script(ROOT / "scripts" / "make_mask_gallery.py",
                       "--size", "32", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    header, *rows = (tmp_path / "audit.csv").read_bytes().decode().split("\r\n")[:-1]
    assert header.split(",")[:5] == ["kind", "height", "width", "seed", "requested_acc"]
    stems = sorted(path.stem for path in tmp_path.glob("*.cks"))
    assert stems and stems == sorted(path.stem for path in tmp_path.glob("*.pbm"))
    audited = [row.split(",") for row in rows]
    assert sorted(f"{kind}_{float(acc):g}x" for kind, _h, _w, _seed, acc, *_ in audited) == stems
    assert all(row[1:3] == ["32", "32"] for row in audited)
