"""The packed-slot codec on its own: round trips and width boundaries."""

import random

from hochhom.packed import pack, slot_width, unpack


def test_unpack_inverts_pack_at_struct_and_byte_widths():
    rng = random.Random(25)
    for w in (8, 16, 32, 64, 72, 152):
        top = (1 << w) - 1
        cases = [[], [0], [top], [0, 0, 0], [top, 0, top], [0, top, 0, 1]]
        cases += [[rng.choice((0, top, rng.randint(0, top)))
                   for _ in range(rng.randint(1, 40))] for _ in range(20)]
        for xs in cases:
            value = pack(xs, w)
            assert list(unpack(value, w, len(xs))) == xs, (w, xs)
            # slot k sits in bits [k w, (k + 1) w), lowest first
            assert value == sum(x << (k * w) for k, x in enumerate(xs))


def test_slot_width_boundaries():
    assert [slot_width(x) for x in (0, 1, 255)] == [8, 8, 8]
    assert slot_width(256) == 16
    assert slot_width(2 ** 16 - 1) == 16 and slot_width(2 ** 16) == 32
    assert slot_width(2 ** 32) == 64
    assert slot_width(2 ** 64 - 1) == 64
    assert slot_width(2 ** 64) == 72
    assert slot_width(2 ** 152 - 1) == 152
