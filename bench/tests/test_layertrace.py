import sys
import types

import pytest

from layertrace import ROOT, Probe, Tracer


@pytest.fixture
def pkg():
    """A two-module package: `fakepkg.core` recurses through its module
    globals, `fakepkg.user` imports the names, as acorncore's modules do."""
    core = types.ModuleType("fakepkg.core")
    exec(
        "import sys\n"
        "def down(n):\n"
        "    return _depth() if n == 0 else down(n - 1)\n"
        "def _depth():\n"
        "    f, d = sys._getframe(), 0\n"
        "    while f is not None:\n"
        "        f, d = f.f_back, d + 1\n"
        "    return d\n"
        "def walk(n):\n"
        "    return [] if n == 0 else [leaf(n)] + walk(n - 1)\n"
        "def leaf(n):\n"
        "    return n\n"
        "def relay(n):\n"
        "    return n if n == 0 else relay_ref(n - 1)\n"
        "relay_ref = None\n",
        core.__dict__,
    )
    user = types.ModuleType("fakepkg.user")
    user.down, user.walk, user.leaf = core.down, core.walk, core.leaf
    root = types.ModuleType("fakepkg")
    mods = {"fakepkg": root, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    yield types.SimpleNamespace(core=core, user=user)
    for name in mods:
        del sys.modules[name]


def probes():
    return [
        Probe("core.down", "fakepkg.core", ("down",)),
        Probe("core.walk", "fakepkg.core", ("walk",)),
        Probe("core.leaf", "fakepkg.core", ("leaf",), count=lambda n: n),
        Probe("core.relay", "fakepkg.core", ("relay",)),
    ]


def test_only_outermost_calls_are_spans_and_recursion_adds_no_frames(pkg):
    plain_depth = pkg.user.down(200)
    tracer = Tracer(probes(), package="fakepkg")
    tracer.install()
    try:
        tracer.begin_op(0)
        traced_depth = pkg.user.down(200)
        tracer.end_op()
    finally:
        tracer.uninstall()
    downs = [s for s in tracer.spans if s.probe == "core.down"]
    assert len(downs) == 1
    # the wrapper frame sits above the recursion, not at every level of it
    assert traced_depth - plain_depth <= 2
    assert downs[0].op == 0 and tracer.spans[downs[0].parent].probe == ROOT


def test_other_probes_nest_as_children_and_self_time_excludes_them(pkg):
    tracer = Tracer(probes(), package="fakepkg")
    tracer.install()
    try:
        tracer.begin_op(7)
        pkg.user.walk(5)
        tracer.end_op()
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["core.walk"].calls == 1
    assert totals["core.leaf"].calls == 5
    assert totals["core.leaf"].count == 1 + 2 + 3 + 4 + 5
    walk = totals["core.walk"]
    assert walk.self_s == pytest.approx(walk.total_s - totals["core.leaf"].total_s)
    by_parent = tracer.totals(by_parent=True)
    assert by_parent[("core.leaf", "core.walk")].calls == 5


def test_uninstall_restores_every_patched_attribute(pkg):
    before = {
        (m.__name__, a): getattr(m, a)
        for m in (pkg.core, pkg.user)
        for a in ("down", "walk", "leaf")
    }
    tracer = Tracer(probes(), package="fakepkg")
    tracer.install()
    assert all(getattr(sys.modules[m], a) is not f for (m, a), f in before.items())
    tracer.uninstall()
    assert all(getattr(sys.modules[m], a) is f for (m, a), f in before.items())


def test_attributes_are_restored_when_the_call_raises(pkg):
    tracer = Tracer(probes(), package="fakepkg")
    tracer.install()
    wrapper = pkg.core.down
    try:
        with pytest.raises(RecursionError):
            pkg.user.down(10**6)
        assert pkg.core.down is wrapper and pkg.user.down is wrapper
    finally:
        tracer.uninstall()


def test_a_stale_reference_reentry_is_counted_not_timed(pkg):
    tracer = Tracer(probes(), package="fakepkg")
    tracer.install()
    # a reference to the wrapper kept where the swap cannot reach it
    pkg.core.relay_ref = pkg.core.relay
    try:
        assert pkg.core.relay(3) == 0
    finally:
        tracer.uninstall()
    assert tracer.reentries["core.relay"] == 3
    assert sum(1 for s in tracer.spans if s.probe == "core.relay") == 1
