"""The set of weighted sums a sequence reaches, read off the DP's last layer.

No command needs the whole set: they read bit 0 or backtrack a certificate.
The tests compare this view of the kernel's masks with plain set oracles.
"""

from wzs.zerosum import _bit_index, _check_moduli, _subset_layers


def reachable_sums(seq, weights) -> set[int]:
    """All residues of the form sum(a_i * x_i) over nonempty subsequences."""
    _check_moduli(seq, weights)
    r = _subset_layers(seq, weights)[-1]
    bit = _bit_index(weights)
    return {t for t in range(seq.modulus) if r >> bit[t] & 1}
