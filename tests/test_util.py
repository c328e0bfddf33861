import numpy as np
import pytest

from icrt_lab.util import keyed_generator, keyed_normals


class TestKeyedNormals:
    @pytest.mark.parametrize("m", [0, 1, 50])
    def test_equals_keyed_generator_draws(self, m):
        # multi-word seeds; 2**70 gives a 5-word entropy, past the 4-word pool
        keys = [
            (seed, tag, i)
            for seed in (0, 7, 2**32 - 1, 2**32 + 5, 2**70)
            for tag in (101, 102, 103)
            for i in (0, 3, 2**32 - 1)
        ]
        want = np.concatenate([keyed_generator(*k).standard_normal(m) for k in keys])
        assert keyed_normals(keys, [m] * len(keys)).tobytes() == want.tobytes()

    def test_mixed_lengths_and_counts(self):
        keys = [(), (5,), (1, 2, 3, 4), (2**70, 101, 4), (3, 101, 9), (1,) * 9]
        counts = [2, 0, 7, 1, 3, 4]
        want = [keyed_generator(*k).standard_normal(m) for k, m in zip(keys, counts)]
        got = keyed_normals(keys, counts)
        assert got.tobytes() == np.concatenate(want).tobytes()
        assert keyed_normals([], []).size == 0

    def test_negative_key_raises(self):
        for key in ((-1, 101, 0), (3, 101, -2**40)):
            with pytest.raises(ValueError):
                keyed_normals([(3, 101, 0), key], [1, 1])
