"""The set of weighted sums a sequence reaches, read off the DP's last layer,
and a weight set's twin on residue masks.

No command needs the whole set: they read bit 0 or backtrack a certificate.
The tests compare this view of the kernel's masks with plain set oracles,
and the two mask forms with each other.
"""

from wzs.weightsets import WeightSet
from wzs.zerosum import _check_moduli, _subset_layers


def reachable_sums(seq, weights) -> set[int]:
    """All residues of the form sum(a_i * x_i) over nonempty subsequences."""
    _check_moduli(seq, weights)
    r = _subset_layers(seq, weights)[-1]
    bit = weights.bit
    return {t for t in range(seq.modulus) if r >> bit[t] & 1}


def residue_twin(weights):
    """A fresh copy of a weight set whose kernel runs on residue masks."""
    twin = WeightSet(weights.modulus, weights.elements, weights.kind, weights.is_subgroup)
    vars(twin)["uses_orbits"] = False
    return twin
