"""scripts/census.py on a toy package: what one measured pass lists.

Each case writes a package ``toy`` under ``tmp_path/src`` and hands the
census the runs that stand for the real ones: callables that import the
package and call into it.  A call a case makes outside those runs is a
test's call, which the census never sees.  Every case's runs also drive
``toy.cli.main``, with every flag unless the case says otherwise, so the
command line itself is entered.
"""

import importlib
import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "census.py"
_spec = importlib.util.spec_from_file_location("census", SCRIPT)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

CLI = """\
    import argparse


    def build_parser():
        common = argparse.ArgumentParser(add_help=False)
        common.add_argument("--seed", default="0")
        parser = argparse.ArgumentParser(prog="toy")
        sub = parser.add_subparsers(dest="command", required=True)
        for name in ("go", "stop"):
            command = sub.add_parser(name, parents=[common])
            command.set_defaults(run=lambda args: 0)
        sub.choices["go"].add_argument("--fast", action="store_true")
        sub.choices["go"].add_argument("--slow", action="store_true")
        return parser


    def main(argv=None):
        args = build_parser().parse_args(argv)
        return args.run(args)
"""


def call(module, expression):
    """A run: import ``toy.<module>`` and evaluate ``expression`` with it as ``m``."""
    return lambda: eval(expression, {"m": importlib.import_module(f"toy.{module}")}) and None


def forget_toy():
    for name in [name for name in sys.modules if name.partition(".")[0] == "toy"]:
        del sys.modules[name]


@pytest.fixture
def toy(tmp_path, monkeypatch):
    """Write ``{path under src/toy/: source}``, run ``runs`` under the
    census, the CLI driven with ``drive``, and return its report lines."""
    monkeypatch.syspath_prepend(str(tmp_path / "src"))

    def measure(files, *runs, allowed=({}, {}, {}), drive=("go", "--fast", "--slow", "--seed", "1")):
        for relative, source in {"__init__.py": "", "cli.py": CLI, **files}.items():
            path = tmp_path / "src" / "toy" / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        importlib.invalidate_caches()
        forget_toy()
        named = [(f"run {n}", run) for n, run in enumerate(runs + (call("cli", f"m.main({list(drive)})"),))]
        return census.census(named, tmp_path / "src", "toy.cli", allowed)
    yield measure
    forget_toy()


def listed(lines):
    """The qualified names (and parameters) a report names, its CLI flags aside."""
    return [line.split(": ")[1] for line in lines if not line.startswith("src/toy/cli.py: ")]


MODULE = """\
    def used():
        return 1

    def only_tested():
        return 2
"""


def test_a_function_only_a_test_calls_is_listed(toy):
    report = toy({"mod.py": MODULE}, call("mod", "m.used()"))
    importlib.import_module("toy.mod").only_tested()  # a test's call: never measured
    assert listed(report) == ["only_tested"]
    assert report[0].startswith("src/toy/mod.py:4: only_tested: no run enters it")


def test_a_function_an_example_calls_is_live(toy):
    assert toy({"mod.py": MODULE}, call("mod", "(m.used(), m.only_tested())")) == []


def test_a_re_export_is_not_a_use(toy):
    report = toy({"__init__.py": "from toy.mod import only_tested, used\n", "mod.py": MODULE},
                 lambda: importlib.import_module("toy").used() and None)
    assert listed(report) == ["only_tested"]


def test_a_name_a_script_spells_is_not_a_use(toy, tmp_path):
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "guards.py").write_text("RULES = ['only_tested']\n")
    assert listed(toy({"mod.py": MODULE}, call("mod", "m.used()"))) == ["only_tested"]


def test_what_only_test_only_code_reaches_is_test_only(toy):
    report = toy({"mod.py": """\
        def helper():
            return 1

        def only_tested():
            def inner():
                return helper()
            return inner()

        def recursive(n):
            return recursive(n - 1) if n else 0

        class Report:
            def __init__(self):
                self.total = helper()

            def ratio(self):
                return self.total
    """})
    # A nested definition goes with the one it sits in; a dunder is exempt.
    assert listed(report) == ["helper", "only_tested", "recursive", "Report.ratio"]


def test_an_rpc_method_named_in_a_string_stays_live(toy):
    report = toy({"registry.py": """\
        class Registry:
            def query(self, identity):
                return identity

            def purge(self):
                return None

        def fetch(registry, method, identity):
            return getattr(registry, method)(identity)
    """}, call("registry", "m.fetch(m.Registry(), 'query', 'x')"))
    assert listed(report) == ["Registry.purge"]


def test_a_getattr_prefix_dispatch_keeps_its_handlers(toy):
    report = toy({"build.py": """\
        class Builder:
            def run(self, keyword):
                return getattr(self, f"_op_{keyword}")()

            def _op_copy(self):
                return 1

            def _op_move(self):
                return 2
    """}, call("build", "m.Builder().run('copy')"))
    # Only the handler a run dispatches to is entered.
    assert listed(report) == ["Builder._op_move"]


def test_a_qualified_use_counts_only_for_its_module(toy):
    report = toy({
        "stats.py": """\
            def ratio(a, b):
                return a / b

            class Report:
                def ratio(self):
                    return 1
        """,
        "other.py": "def ratio():\n    return 2\n",
    }, call("stats", "m.Report().ratio()"), call("other", "m.ratio()"))
    assert listed(report) == ["ratio"]


def test_a_method_entered_only_on_a_worker_thread_is_live(toy):
    report = toy({"pool.py": """\
        import threading

        class Worker:
            def work(self):
                return 1

            def idle(self):
                return 0

        def run_on_a_thread():
            thread = threading.Thread(target=Worker().work)
            thread.start()
            thread.join()
    """}, call("pool", "m.run_on_a_thread()"))
    assert listed(report) == ["Worker.idle"]


def test_an_allowlisted_entry_passes_until_a_run_enters_it(toy):
    files = {"mod.py": MODULE}
    kept = {"src/toy/mod.py:only_tested": "§7: a fault seam"}
    assert toy(files, call("mod", "m.used()"), allowed=(kept, {}, {})) == []
    # An entry whose definition a run enters, or that names nothing, is stale.
    kept["src/toy/gone.py:ghost"] = "§1: deleted"
    assert toy(files, call("mod", "(m.used(), m.only_tested())"), allowed=(kept, {}, {})) == [
        "src/toy/mod.py:only_tested: allowlisted, but a run enters it",
        "src/toy/gone.py:ghost: allowlisted, but no such definition",
    ]


PARAMETERS = """\
    def used(x, flag=False, *, mode="r"):
        return x, flag, mode
"""


def test_a_defaulted_parameter_no_caller_sets_is_still_listed(toy):
    report = toy({"mod.py": PARAMETERS}, call("mod", "m.used(1, mode='w')"))
    assert report == ["src/toy/mod.py:1: used(flag=): always its default"]


def test_a_parameter_passed_explicitly_at_its_default_is_listed(toy):
    report = toy({"mod.py": PARAMETERS}, call("mod", "m.used(1, flag=False, mode='w')"))
    assert listed(report) == ["used(flag=)"]


def test_a_parameter_only_tests_set_is_listed(toy):
    report = toy({"mod.py": PARAMETERS}, call("mod", "m.used(1, mode='w')"))
    importlib.import_module("toy.mod").used(1, True, mode="a")  # a test's call
    assert listed(report) == ["used(flag=)"]


def test_a_parameter_allowlist_entry_passes_until_it_goes_stale(toy):
    files = {"mod.py": PARAMETERS}
    kept = {"src/toy/mod.py:used(flag=)": "§2: a property test draws it"}
    assert toy(files, call("mod", "m.used(1, mode='w')"), allowed=({}, kept, {})) == []
    kept["src/toy/gone.py:ghost(x=)"] = "§1: deleted"
    assert toy(files, call("mod", "m.used(1, True, mode='w')"), allowed=({}, kept, {})) == [
        "src/toy/mod.py:used(flag=): allowlisted, but a run sets it",
        "src/toy/gone.py:ghost(x=): allowlisted, but no such parameter",
    ]


def test_a_resumed_generator_is_compared_on_its_first_entry_only(toy):
    report = toy({"gen.py": """\
        def ticks(step=1, limit=3):
            while limit:
                step = yield step    # rebinds step: a resume is no call
                limit -= 1

        def drive():
            ticks_ = ticks(limit=2)
            next(ticks_)
            ticks_.send(5)
    """}, call("gen", "m.drive()"))
    assert listed(report) == ["ticks(step=)"]


FORWARDING = """\
    def build(*, bandwidth=1, disk="hdd", pool=None, seed="s"):
        return bandwidth, disk, pool, seed

    class Cluster:
        def __init__(self, count, *, seed="c", **kwargs):
            self.bed = build(seed=seed, **kwargs)

    def scenario(flag):
        kwargs = {"bandwidth": 2}
        if flag:
            kwargs["disk"] = "ssd"
        return kwargs
"""


def test_a_keyword_only_a_tests_splat_reaches_is_listed(toy):
    report = toy({"mod.py": FORWARDING},
                 call("mod", "(m.Cluster(2, bandwidth=5, seed='x'), m.scenario(False))"))
    importlib.import_module("toy.mod").Cluster(2, **{"disk": "ssd", "pool": 1})  # a test's
    assert listed(report) == ["build(disk=)", "build(pool=)"]


def test_a_forwarded_dicts_keys_count_as_set(toy):
    # A non-default forwarded through **kwargs reaches build's frame.
    report = toy({"mod.py": FORWARDING},
                 call("mod", "(m.Cluster(2, **m.scenario(True)), m.Cluster(3, seed='x'))"))
    assert listed(report) == ["build(pool=)"]


def test_a_flag_only_a_test_argv_passes_is_listed(toy):
    report = toy({}, call("cli", "m.main(['stop', '--seed', '3'])"), drive=("go", "--fast"))
    importlib.import_module("toy.cli").main(["go", "--slow"])  # a test's argv
    # --seed is the shared parser's: one flag, whichever command passes it.
    assert report == ["src/toy/cli.py: go --slow: no run passes it"]
    assert toy({}, drive=("go", "--fast", "--slow"),
               allowed=({}, {}, {"* --seed": "§4: a documented knob"})) == []


def test_a_run_that_fails_is_a_finding(toy):
    report = toy({"mod.py": MODULE}, lambda: "exit 1", call("mod", "(m.used(), m.only_tested())"))
    assert report == ["run 0: exit 1"]


def test_a_typed_command_with_a_placeholder_is_skipped_by_name():
    text = textwrap.dedent("""\
        Run `python -m repro.cli paper` for the sweep.
        PYTHONPATH=src python -m repro.cli deploy --target nginx \\
            --scale 0.2   # a comment
        python -m repro.cli trace --out-dir <dir>
    """)
    assert list(census.typed(text)) == [
        (["deploy", "--target", "nginx", "--scale", "0.2"],
         "PYTHONPATH=src python -m repro.cli deploy --target nginx \\"),
        (None, "python -m repro.cli trace --out-dir <dir>"),
    ]


def test_the_allowlist_is_pinned_and_each_entry_names_its_design_section():
    # Growing an allowlist is a visible edit: change its pin with it.
    assert (len(census.DEFINITIONS), len(census.PARAMETERS), len(census.FLAGS)) == (54, 27, 1)
    for allowlist in (census.DEFINITIONS, census.PARAMETERS, census.FLAGS):
        for key, why in allowlist.items():
            assert why.startswith("§"), key
    for key in [*census.DEFINITIONS, *census.PARAMETERS]:
        assert key.startswith("src/") and ":" in key, key
