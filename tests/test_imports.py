"""Which modules load when: the minor route and the sampler load on first use.

Each check runs in a fresh interpreter, since this test process has already
imported every module; one calls the package's two hooks in this process too.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAZY = ("quivergrass.dynkin", "quivergrass.sampler")


def _run(code: str) -> dict:
    """Run code in a fresh interpreter with src/ and qgbench/ on the path;
    it prints one JSON object, which is returned."""
    prelude = f"import json, sys\nsys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'qgbench')!r}]\n"
    flags = ["-X", "dev"] if sys.flags.dev_mode else []
    proc = subprocess.run([sys.executable, *flags, "-c", prelude + textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('quivergrass'))))"


@pytest.mark.parametrize("code", [
    "import quivergrass",
    "import quivergrass.cli\nquivergrass.cli.build_parser()",
    "import quivergrass.cli\n"
    "assert quivergrass.cli.main(['kronecker', 'pr', '--m', '3', '--mode', 'both']) == 0",
], ids=["package", "cli_parser", "kronecker_command"])
def test_the_counting_core_loads_neither_lazy_module(code):
    loaded = _run(code + "\n" + LOADED)
    assert "quivergrass.euler" in loaded
    assert not set(LAZY) & set(loaded)


def test_every_public_name_resolves_to_its_defining_module():
    out = _run("""
        import importlib
        import quivergrass as qg
        listed = dir(qg)
        lazy = {name: f"quivergrass.{module}" for name, module in qg._LAZY.items()}
        bad = []
        for name in qg.__all__:
            obj = getattr(qg, name)
            owner = lazy.get(name) or getattr(obj, "__module__", None) or ""
            if owner.startswith("quivergrass.") and \\
                    getattr(importlib.import_module(owner), name) is not obj:
                bad.append(name)
            if name not in listed:
                bad.append(f"{name} not in dir()")
        star = {}
        exec("from quivergrass import *", star)
        print(json.dumps({"lazy": sorted(lazy), "bad": bad,
                          "star": sorted(set(qg.__all__) - set(star)),
                          "modules": [qg.dynkin.__name__, qg.sampler.__name__]}))
    """)
    assert len(out["lazy"]) == 12
    assert out["bad"] == [] and out["star"] == []
    assert out["modules"] == list(LAZY)


def test_a_lazy_module_resolves_on_first_touch_and_is_listed_before():
    # qg.sampler read first, before any of its names: the import system has
    # not bound it yet, so the package's __getattr__ imports it
    out = _run("""
        import quivergrass as qg
        listed = dir(qg)
        before = "quivergrass.sampler" in sys.modules
        module = qg.sampler
        print(json.dumps({"before": before, "same": module is sys.modules["quivergrass.sampler"],
                          "owns": qg.sample_general_rep is module.sample_general_rep,
                          "missing": sorted((set(qg._LAZY) | {"dynkin", "sampler"})
                                            - set(listed)),
                          "sorted": listed == sorted(listed)}))
    """)
    assert out == {"before": False, "same": True, "owns": True, "missing": [], "sorted": True}


def test_the_lazy_hooks_answer_in_this_process():
    # the same two hooks called directly, so this process runs their lines
    import quivergrass as qg
    assert qg.__getattr__("sampler") is sys.modules["quivergrass.sampler"]
    assert qg.__getattr__("dynkin") is sys.modules["quivergrass.dynkin"]
    listed = qg.__dir__()
    assert set(qg._LAZY) | set(qg._LAZY_MODULES) | set(qg.__all__) <= set(listed)
    assert listed == sorted(listed)


def test_an_unknown_attribute_is_named():
    out = _run("""
        import quivergrass as qg
        try:
            qg.no_such_name
        except AttributeError as exc:
            print(json.dumps(str(exc)))
    """)
    assert out == "module 'quivergrass' has no attribute 'no_such_name'"


def test_first_use_of_lazy_names_is_thread_safe():
    out = _run("""
        import threading
        import quivergrass as qg
        names = sorted(qg._LAZY)
        barrier = threading.Barrier(2)
        results = [[], []]

        def touch(out):
            barrier.wait()
            out.extend(getattr(qg, name) for name in names)

        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=touch, args=(out,)) for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        owners = [getattr(sys.modules["quivergrass." + qg._LAZY[name]], name) for name in names]
        print(json.dumps({"alive": any(t.is_alive() for t in threads),
                          "touched": len(results[0]),
                          "same": all(a is b is c for a, b, c in zip(*results, owners))}))
    """)
    assert out == {"alive": False, "touched": 12, "same": True}


@pytest.mark.parametrize("workload", ["kron_table", "kron_deep", "dynkin"])
def test_no_module_loads_during_a_benchmark_pass(workload):
    # a module first imported inside a job would move its compile time from
    # the benchmark's set-up into the timed pass
    loaded = _run(f"""
        import quivergrass.cli
        import jobs
        quivergrass.cli.build_parser()
        built = jobs.build_jobs({workload!r}, 401)
        before = set(sys.modules)
        for job in built:
            try:
                job.run()
            except Exception:
                pass
        print(json.dumps(sorted(m for m in set(sys.modules) - before
                                if m.startswith("quivergrass"))))
    """)
    assert loaded == []
