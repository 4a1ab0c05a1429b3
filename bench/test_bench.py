"""Tests of the benchmark itself: counters repeat, wrappers are transparent
and are removed afterwards.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# a cheap slice of each workload that still reaches every layer it loads
SLICES = {
    "lens_sweep": ("L(2)", "L(4)", "L(5)", "L(7)", "L(13)"),
    "assembly_search": ("L(2)", "L(3)", "twisted L(3)"),
    "nonabelian_cli": None,  # all 75 items
}


def _items(name, workdir):
    items = workloads.WORKLOADS[name](7, str(workdir))
    keep = SLICES[name]
    return items if keep is None else [it for it in items if it.label in keep]


def _bodies(items):
    return [it.run() for it in items]


def _counts(name, workdir):
    """Per-layer metrics of one traced pass, without the wall-clock ones."""
    items = _items(name, workdir)
    tracer = spans.Tracer()
    tracer.install()
    failures = []
    try:
        run.run_pass(items, failures, on_item=lambda i: setattr(tracer, "item", i))
    finally:
        tracer.remove()
    assert failures == []
    return {k: v for k, v in tracer.metrics().items() if not k.endswith(".self_s")}


@pytest.fixture
def workdir():
    path = os.path.join(run.OUT, "test-work")
    os.makedirs(path, exist_ok=True)
    yield os.path.relpath(path)
    for name in os.listdir(path):
        os.remove(os.path.join(path, name))
    os.rmdir(path)


def _bindings():
    """Every zgdual module and class binding that the tracer may rebind."""
    out = {}
    for modname, mod in sys.modules.items():
        if modname == "zgdual" or modname.startswith("zgdual."):
            for key, value in vars(mod).items():
                out[(modname, key)] = value
    for _, owner, attr, _, _ in spans._targets():
        if isinstance(owner, type):
            out[(owner.__name__, attr)] = getattr(owner, attr)
    return out


@pytest.mark.parametrize("name", sorted(SLICES))
def test_traced_counts_repeat(name, workdir):
    first = _counts(name, workdir)
    second = _counts(name, workdir)
    assert first == second
    assert any(first[k] for k in first if k.endswith(".calls"))


@pytest.mark.parametrize("name", sorted(SLICES))
def test_wrappers_are_transparent(name, workdir):
    items = _items(name, workdir)
    plain = _bodies(items)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _bodies(items)
    finally:
        tracer.remove()
    assert traced == plain
    assert all(it.check(body) == [] for it, body in zip(items, plain))


def test_wrappers_are_removed(workdir):
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    rebound = {k for k, v in _bindings().items() if before.get(k) is not v}
    # the defining module and every module importing by name
    assert ("zgdual.int_linalg", "smith_normal_form") in rebound
    assert ("zgdual.complexes", "smith_normal_form") in rebound
    assert ("zgdual.dual_form", "lll_reduce") in rebound
    assert ("IntegerMatrix", "__matmul__") in rebound
    _bodies(_items("assembly_search", workdir))
    tracer.remove()
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


def test_every_layer_metric_is_reported(workdir):
    names = [n for n, _ in spans.metric_specs()]
    assert len(names) == len(set(names))
    tracer = spans.Tracer()
    tracer.install()
    tracer.remove()
    assert set(tracer.metrics()) | {spans.OVERHEAD_METRIC} == set(names)


def test_nearest_rank_stays_inside_one_item_block():
    # 25 items, each repeated P times: p50 and p90 never straddle two items
    for passes in range(1, 12):
        samples = [item for item in range(25) for _ in range(passes)]
        assert run.nearest_rank(samples, 50) == 12
        assert run.nearest_rank(samples, 90) == 22
