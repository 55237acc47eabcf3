"""scripts/census.py on small trees: what each pass lists, and what it keeps.

Each case writes a miniature repository under ``tmp_path`` (``src/``,
``tests/``, ``examples/``) and points the census at it, with both
allowlists empty unless the case fills one.
"""

import importlib.util
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "census.py"
_spec = importlib.util.spec_from_file_location("census", SCRIPT)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """Write ``{relative path: source}`` and return the census's findings
    as ``(test-only qualified names, stale allowlist lines)``."""
    monkeypatch.setattr(census, "ROOT", tmp_path)
    monkeypatch.setattr(census, "DEFINITION_ALLOWLIST", {})
    monkeypatch.setattr(census, "PARAMETER_ALLOWLIST", {})

    def write(files, allowlist=None):
        for relative, source in files.items():
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        if allowlist is not None:
            monkeypatch.setattr(census, "DEFINITION_ALLOWLIST", allowlist)
        dead, stale = census.unused_definitions()
        return [line.split(": ", 1)[1].split(" (")[0] for line in dead], stale

    return write


MODULE = """\
    def used():
        return 1

    def only_tested():
        return 2
"""


def test_a_function_only_a_test_calls_is_listed(repo):
    dead, _ = repo({
        "src/pkg/mod.py": MODULE,
        "examples/demo.py": "from pkg.mod import used\nused()\n",
        "tests/test_mod.py": "from pkg.mod import only_tested\nonly_tested()\n",
    })
    assert dead == ["only_tested"]


def test_a_function_an_example_calls_is_live(repo):
    dead, _ = repo({
        "src/pkg/mod.py": MODULE,
        "examples/demo.py": "from pkg.mod import used, only_tested\nused(); only_tested()\n",
    })
    assert dead == []


def test_a_re_export_is_not_a_use(repo):
    dead, _ = repo({
        "src/pkg/__init__.py": """\
            from pkg.mod import only_tested, used
            __all__ = ["only_tested", "used"]
        """,
        "src/pkg/mod.py": MODULE,
        "examples/demo.py": "import pkg\npkg.used()\n",
    })
    assert dead == ["only_tested"]


def test_a_name_a_script_spells_is_not_a_use(repo):
    # scripts/guards.py names what its rules forbid: no definition lives by it.
    dead, _ = repo({
        "src/pkg/mod.py": MODULE,
        "examples/demo.py": "from pkg.mod import used\nused()\n",
        "scripts/guards.py": "RULES = [named('only_tested')]\n",
    })
    assert dead == ["only_tested"]


def test_what_only_test_only_code_reaches_is_test_only(repo):
    dead, _ = repo({
        "src/pkg/mod.py": """\
            def helper():
                return 1

            def only_tested():
                return helper()

            def recursive(n):
                return recursive(n - 1) if n else 0

            class Report:
                def total(self):
                    return helper()
        """,
        "tests/test_mod.py": "from pkg.mod import Report, only_tested, recursive\n",
    })
    # A reference from inside itself keeps nothing alive; a method goes
    # with its class.
    assert dead == ["helper", "only_tested", "recursive", "Report"]


def test_an_rpc_method_named_in_a_string_stays_live(repo):
    dead, _ = repo({
        "src/pkg/registry.py": """\
            class Registry:
                def __init__(self):
                    self.files = {}

                def query(self, identity):
                    return identity in self.files

                def purge(self):
                    self.files.clear()

            def fetch(transport, identity):
                return transport.call("registry", "query", identity)
        """,
        "examples/demo.py": "from pkg.registry import Registry, fetch\n",
    })
    assert dead == ["Registry.purge"]  # __init__ is a dunder: always live


def test_a_getattr_prefix_dispatch_keeps_its_handlers(repo):
    dead, _ = repo({
        "src/pkg/build.py": """\
            class Builder:
                def run(self, keyword):
                    return getattr(self, f"_op_{keyword}")()

                def _op_copy(self):
                    return 1
        """,
        "examples/demo.py": "from pkg.build import Builder\nBuilder().run('copy')\n",
    })
    assert dead == []


def test_an_allowlisted_entry_passes_and_roots_its_callees(repo):
    files = {
        "src/pkg/mod.py": """\
            def helper():
                return 1

            def seam():
                return helper()
        """,
        "tests/test_mod.py": "from pkg.mod import seam\n",
    }
    assert repo(files, {"src/pkg/mod.py:seam": "§7: a fault seam"}) == ([], [])
    # An entry that names nothing, or something code already uses, is stale.
    dead, stale = repo(files, {
        "src/pkg/mod.py:seam": "§7: a fault seam",
        "src/pkg/mod.py:helper": "§7: reached from the seam anyway",
        "src/pkg/gone.py:ghost": "§1: deleted",
    })
    assert dead == []
    assert [line.split(":")[1] for line in stale] == ["helper", "ghost"]


def test_a_defaulted_parameter_no_caller_sets_is_still_listed(repo):
    repo({
        "src/pkg/mod.py": """\
            def used(x, flag=False, *, mode="r"):
                return x, flag, mode
        """,
        "examples/demo.py": "from pkg.mod import used\nused(1, mode='w')\n",
    })
    total, unset = census.census()
    assert total == 2
    assert unset == ["src/pkg/mod.py:1: used(flag=)"]


def test_a_parameter_only_tests_set_is_listed(repo):
    # A test is not a caller: the option lives for its own test.
    repo({
        "src/pkg/mod.py": """\
            def used(x, flag=False, *, mode="r"):
                return x, flag, mode
        """,
        "examples/demo.py": "from pkg.mod import used\nused(1, mode='w')\n",
        "tests/test_mod.py": "from pkg.mod import used\nused(1, True, mode='a')\n",
    })
    assert census.census()[1] == ["src/pkg/mod.py:1: used(flag=)"]


def test_a_parameter_allowlist_entry_passes_until_it_goes_stale(repo, monkeypatch):
    files = {
        "src/pkg/mod.py": "def used(x, flag=False):\n    return x, flag\n",
        "examples/demo.py": "from pkg.mod import used\nused(1)\n",
    }
    repo(files)
    monkeypatch.setattr(census, "PARAMETER_ALLOWLIST", {
        "src/pkg/mod.py:used(flag=)": "§2: a property test draws it"})
    assert census.census()[1] == []
    # An entry that a caller outside tests/ sets, or that names nothing, is stale.
    repo({"examples/demo.py": "from pkg.mod import used\nused(1, flag=True)\n"})
    monkeypatch.setattr(census, "PARAMETER_ALLOWLIST", {
        "src/pkg/mod.py:used(flag=)": "§2: a property test draws it",
        "src/pkg/gone.py:ghost(x=)": "§1: deleted"})
    assert census.census()[1] == [
        "src/pkg/mod.py:used(flag=): allowlisted, but a caller outside tests/ sets it",
        "src/pkg/gone.py:ghost(x=): allowlisted, but no such parameter",
    ]


def test_the_allowlist_is_pinned_and_each_entry_names_its_design_section():
    # Growing an allowlist is a visible edit: change its pin with it.  A
    # parameter stays only if Python passes it, a property test draws it,
    # or a ROADMAP item states a bound over it.
    assert census.PARAMETER_ALLOWLIST == {
        "src/repro/vfs/inode.py:Metadata.__setattr__(value=)":
            "§2: Python calls it as __delattr__ too, with no value",
        "src/repro/blob/blob.py:Blob.synthetic(chunk_size=)":
            "§15: the covering-chunks property in tests/test_gear_chunks.py "
            "draws the chunk size",
        "src/repro/gear/bigfile.py:ChunkedGearFileViewer.__init__(chunk_buffer_bytes=)":
            "§15: ROADMAP item 15 bounds a viewer's chunks over buffer sizes",
        "src/repro/vfs/overlay.py:OverlayMount.__init__(upper=)":
            "§2: the overlay oracle in tests/test_vfs_oracle.py draws the upper "
            "layer, whiteouts and opaque directories included",
        "src/repro/vfs/tree.py:FileSystemTree.mkdir(meta=)":
            "§2: the copy-on-write property in tests/test_vfs_cow.py draws a "
            "directory's metadata",
        "src/repro/vfs/tree.py:FileSystemTree.symlink(meta=)":
            "§2: the copy-on-write property in tests/test_vfs_cow.py draws a "
            "symlink's metadata",
        "src/repro/vfs/tree.py:FileSystemTree.exists(follow_symlinks=)":
            "§2: the column-lower oracle in tests/test_vfs_oracle.py draws lookups "
            "that follow a final symlink and lookups that stop at it",
        "src/repro/vfs/tree.py:FileSystemTree.stat(follow_symlinks=)":
            "§2: the column-lower oracle in tests/test_vfs_oracle.py draws stat "
            "and lstat",
        "src/repro/vfs/tree.py:FileSystemTree.listdir(path=)":
            "§2: the column-lower oracle in tests/test_vfs_oracle.py draws the "
            "directory listed",
        "src/repro/vfs/overlay.py:OverlayMount.exists(follow_symlinks=)":
            "§2: the column-lower oracle in tests/test_vfs_oracle.py draws "
            "lookups through a viewer that follow a final symlink or stop at it",
        "src/repro/vfs/overlay.py:OverlayMount.stat(follow_symlinks=)":
            "§2: the overlay oracle in tests/test_vfs_oracle.py draws stat and lstat",
        "src/repro/vfs/overlay.py:OverlayMount.listdir(path=)":
            "§2: the overlay oracle in tests/test_vfs_oracle.py draws the "
            "directory listed",
    }
    assert len(census.DEFINITION_ALLOWLIST) == 11
    for key, why in census.DEFINITION_ALLOWLIST.items():
        assert key.startswith("src/") and ":" in key, key
        assert why.startswith("§"), key


def test_a_qualified_use_counts_only_for_its_module(repo):
    # An attribute of an object is a method's name, and an import or a
    # module's attribute names that module's definition: neither keeps a
    # namesake module-level function alive.
    dead, _ = repo({
        "src/pkg/stats.py": """\
            def ratio(a, b):
                return a / b

            class Report:
                def ratio(self):
                    return 1
        """,
        "src/pkg/other.py": "def ratio():\n    return 2\n",
        "examples/demo.py": """\
            from pkg import other
            from pkg.stats import Report
            Report().ratio()
            other.ratio()
        """,
        "tests/test_stats.py": "from pkg.stats import ratio\nratio(1, 2)\n",
    })
    assert dead == ["ratio"]


FORWARDING = """\
    def build(*, bandwidth=1, disk="hdd", pool=None, seed="s"):
        return bandwidth, disk, pool, seed

    class Cluster:
        def __init__(self, count, *, seed="c", **kwargs):
            self.bed = build(seed=seed, **kwargs)
"""


def test_a_keyword_only_a_tests_splat_reaches_is_listed(repo):
    # Cluster forwards its **kwargs: build gets what Cluster's callers
    # pass, and only a test passes disk or pool.
    repo({
        "src/pkg/mod.py": FORWARDING,
        "examples/demo.py": "from pkg.mod import Cluster\nCluster(2, bandwidth=5, seed='x')\n",
        "tests/test_mod.py": "from pkg.mod import Cluster\n"
                             "Cluster(2, **{'disk': 'ssd', 'pool': 1})\n",
    })
    assert census.census()[1] == ["src/pkg/mod.py:1: build(disk=)",
                                  "src/pkg/mod.py:1: build(pool=)"]


def test_a_forwarded_dicts_keys_count_as_set(repo):
    # A dict display, its name["key"] stores, and a src/ helper that
    # returns one: each sets its keys, through the forward, and no more.
    repo({
        "src/pkg/mod.py": FORWARDING + """\

    def scenario(flag):
        kwargs = {"bandwidth": 2}
        if flag:
            kwargs["disk"] = "ssd"
        return kwargs
""",
        "examples/demo.py": """\
            from pkg.mod import Cluster, scenario
            Cluster(2, **scenario(True))
            Cluster(3, **dict(seed="x"))
        """,
    })
    assert census.census()[1] == ["src/pkg/mod.py:1: build(pool=)"]


def test_a_splat_the_census_cannot_resolve_sets_everything(repo):
    repo({
        "src/pkg/mod.py": FORWARDING,
        "examples/demo.py": """\
            import json
            from pkg.mod import Cluster

            def run(options):
                return Cluster(2, **options)

            Cluster(2, **json.loads("{}"))
        """,
    })
    assert census.census()[1] == []
