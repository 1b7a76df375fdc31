"""The package-wide stream seed is pinned by value.

Every seeded stream (faults, markets, fleets, fuzz trials, placements,
trace ids) replays from these numbers; a change here moves every golden.
"""

import pytest

from repro.obs.spans import mint_trace_id
from repro.seeding import stream_seed


@pytest.mark.parametrize(
    "parts, expected",
    [
        ((7, "boot", "synthesis", 0), 2493468976),
        (("spot-sim", 0, 3), 2343442649),
        (("fleet", 42), 2282210282),
        ((0, "stage-az", "regime_flap", "sta"), 2405961441),
    ],
)
def test_stream_seed_is_pinned(parts, expected):
    assert stream_seed(*parts) == expected


def test_stream_seed_keys_on_the_colon_joined_string():
    assert stream_seed("7:boot:synthesis:0") == stream_seed(7, "boot", "synthesis", 0)


def test_trace_ids_are_pinned():
    assert mint_trace_id("service", 0, 3) == "64524bede8baf88d"
