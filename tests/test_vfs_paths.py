"""Lexical path handling."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import VfsError
from repro.vfs import paths


class TestNormalize:
    def test_identity(self):
        assert paths.normalize("/a/b") == "/a/b"

    def test_root(self):
        assert paths.normalize("/") == "/"

    def test_collapses_slashes_and_dots(self):
        assert paths.normalize("//a///./b/.") == "/a/b"

    def test_resolves_dotdot(self):
        assert paths.normalize("/a/b/../c") == "/a/c"

    def test_rejects_relative(self):
        with pytest.raises(VfsError):
            paths.normalize("a/b")

    def test_rejects_escape(self):
        with pytest.raises(VfsError):
            paths.normalize("/../x")


class TestSplitJoin:
    def test_split(self):
        assert paths.split("/a/b/c") == ["a", "b", "c"]
        assert paths.split("/") == []

    def test_parent_and_name(self):
        assert paths.parent_and_name("/a/b/c") == ("/a/b", "c")
        assert paths.parent_and_name("/a") == ("/", "a")

    def test_parent_of_root_fails(self):
        with pytest.raises(VfsError):
            paths.parent_and_name("/")

    def test_join(self):
        assert paths.join("/a", "b", "c") == "/a/b/c"
        assert paths.join("/", "x") == "/x"


def target(link_path, to):
    """The absolute path a symlink at ``link_path`` pointing ``to`` names."""
    parent, _ = paths.parent_and_name(link_path)
    return paths.unsplit(paths.symlink_parts(paths.split(parent), to))


class TestSymlinkTargets:
    def test_absolute_target(self):
        assert target("/a/b/link", "/x/y") == "/x/y"

    def test_relative_target(self):
        assert target("/a/b/link", "sibling") == "/a/b/sibling"

    def test_relative_with_dotdot(self):
        assert target("/a/b/link", "../c") == "/a/c"

    def test_empty_target_is_parent(self):
        assert target("/a/b/link", "") == "/a/b"


_SEGMENTS = st.lists(
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd")), min_size=1, max_size=6
    ),
    min_size=0,
    max_size=5,
)


@given(_SEGMENTS)
def test_property_normalize_idempotent(segments):
    path = "/" + "/".join(segments)
    once = paths.normalize(path)
    assert paths.normalize(once) == once


@given(_SEGMENTS)
def test_property_split_join_roundtrip(segments):
    path = "/" + "/".join(segments)
    normalized = paths.normalize(path)
    assert paths.join("/", *paths.split(path)) == normalized
