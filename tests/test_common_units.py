"""Unit helpers: conversions and formatting."""

import pytest

from repro.common.units import (
    GiB,
    KiB,
    MiB,
    Mbps,
    format_bytes,
    format_duration,
    mbps_to_bytes_per_s,
)


def test_binary_prefixes_chain():
    assert KiB == 1024
    assert MiB == 1024 * KiB
    assert GiB == 1024 * MiB


def test_mbps_conversion_matches_definition():
    # 904 Mbps (the paper's measured LAN) = 113 MB/s.
    assert mbps_to_bytes_per_s(904) == pytest.approx(904e6 / 8)


def test_format_bytes_small():
    assert format_bytes(512) == "512 B"


def test_format_bytes_units():
    assert format_bytes(1536) == "1.50 KiB"
    assert format_bytes(3 * MiB) == "3.00 MiB"
    assert format_bytes(2.5 * GiB) == "2.50 GiB"


def test_format_bytes_huge_uses_tib():
    assert format_bytes(5 * 1024 * GiB).endswith("TiB")


def test_format_duration_scales():
    assert format_duration(0.0000005).endswith("us")
    assert format_duration(0.005).endswith("ms")
    assert format_duration(3.0) == "3.00 s"
    assert format_duration(200) == "3m 20s"


def test_format_duration_rejects_negative():
    with pytest.raises(ValueError):
        format_duration(-1)
