"""The end-to-end benchmark's hooks into the program still resolve.

``perfbench/spans.py`` patches program functions by name (module
globals, class attributes, one model's modules).  A renamed or no longer
imported target makes its installers raise, which otherwise only the
benchmark's own lane would notice.  This installs every hook and checks
that uninstalling puts each original back.  ``perfbench/run.py`` reads
the execution modes through the program's accessors for its environment
line; a removed accessor would stop every run before it prints a result.
"""

import importlib.util
import pathlib

import pytest

import repro.parallel
from repro.autodiff import (get_checkpoint_grads, get_executor,
                            set_checkpoint_grads, set_executor)
from repro.autodiff.tensor import Tensor
from repro.core import DiffODE, DiffODEConfig, dhs, model as model_mod, \
    streaming
from repro.core.dynamics import AugmentedDynamics, DHSDynamics
from repro.data import base as data_base
from repro.nn.recurrent import GRU
from repro.parallel import union
from repro.serving import batcher, cache, engine, protocol
from repro.training import optim, trainer

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"

#: every owner whose attributes the hooks replace
OWNERS = (model_mod, model_mod.DiffODE, GRU, dhs.ContextState, DHSDynamics,
          AugmentedDynamics, streaming, streaming.StreamSession,
          repro.parallel, union, engine, engine.InferenceEngine, trainer,
          data_base, Tensor, optim.Adam, cache.ContextCache, protocol,
          batcher.MicroBatcher)


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load(SPANS, "perfbench_spans")


def test_hooks_install_and_uninstall_cleanly(spans):
    model = DiffODE(DiffODEConfig(input_dim=2, out_dim=1, method="dopri5"))
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = spans.Tracer()
    try:
        spans.install_model_layers(tracer, model)
        spans.install_serving_layers(tracer)
        spans.install_client_layers(tracer)
        patched = {name for owner, snap in zip(OWNERS, before)
                   for name, value in vars(owner).items()
                   if snap.get(name) is not value}
        for name in ("encode", "build_contexts", "initial_state",
                     "union_solve", "solve", "ingest", "execute"):
            assert name in patched
        assert "forward" in vars(model.enc_proj)
        assert "forward" in vars(model.head)
    finally:
        tracer.uninstall()
    for owner, snap in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == snap.keys(), owner
        for name, value in snap.items():
            assert now[name] is value, f"{owner!r}.{name} not restored"
    assert "forward" not in vars(model.enc_proj)
    assert "forward" not in vars(model.head)


def test_environment_reports_execution_modes(monkeypatch):
    run = _load(PERFBENCH / "run.py", "perfbench_run")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    prev = get_executor(), get_checkpoint_grads()
    try:
        # the program's defaults, which perfbench measures
        set_executor("eager")
        set_checkpoint_grads("off")
        env = run.environment()
        assert (env["executor"], env["ir_passes"], env["codegen"],
                env["checkpoint_grads"]) == ("eager", "none", "off", "off")
        set_executor("replay")
        assert run.environment()["codegen"] == "on"
    finally:
        set_executor(prev[0])
        set_checkpoint_grads(prev[1])
