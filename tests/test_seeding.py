"""Seed derivation: which label parts are accepted, which parts name
different streams, and one pinned value, so a change to how streams are
derived fails here by name instead of as drifted numbers elsewhere."""

import numpy as np
import pytest

from moplab.seeding import derive_seed, stream


@pytest.mark.parametrize("part", [True, False, np.bool_(True), np.bool_(False)])
def test_bool_parts_raise(part):
    # True == 1, so a bool would silently name the stream of the integer
    with pytest.raises(TypeError, match="bool"):
        derive_seed(0, part)


def test_an_int_and_its_string_name_different_streams():
    assert derive_seed(1) != derive_seed("1")
    assert derive_seed(0, 1, "train") != derive_seed(0, "1", "train")


def test_numpy_integers_name_the_stream_of_the_python_int():
    assert derive_seed(np.int64(3)) == derive_seed(3)
    assert derive_seed(7, np.uint8(3), "test") == derive_seed(7, 3, "test")


def test_derive_seed_is_pinned():
    # the seed of training system 7 at base seed 0: blake2b-64 over each
    # part's length-prefixed, type-tagged bytes, read little-endian
    assert derive_seed(0, "train", 7) == 9783240896021598558
    assert stream(0, "train", 7).bit_generator.state \
        == np.random.default_rng(9783240896021598558).bit_generator.state
