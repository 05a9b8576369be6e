"""Reference permutations and matrices that the tests compare circuits with.

oracle_permutation tabulates spec_output, the closed form of each gate
family, as a permutation of basis-state indices; permutation_matrix turns a
permutation into the 0/1 unitary the dense executor should produce.
"""
import numpy as np

from rootsynth.bits import bits_to_index, index_to_bits
from rootsynth.verify import GateFamilySpec, spec_output


def oracle_permutation(spec: GateFamilySpec) -> tuple[int, ...]:
    """spec_output as a permutation of basis-state indices."""
    w = spec.n + 1
    return tuple(bits_to_index(spec_output(spec, index_to_bits(x, w))) for x in range(1 << w))


def permutation_matrix(perm) -> np.ndarray:
    """0/1 matrix sending basis column x to row perm[x]."""
    dim = len(perm)
    m = np.zeros((dim, dim))
    for x, y in enumerate(perm):
        m[y, x] = 1.0
    return m
