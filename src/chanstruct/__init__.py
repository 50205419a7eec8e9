"""Structure theory of finite-dimensional quantum channels.

Given a channel as Kraus operators (or an open quantum random walk),
compute its fixed-point algebra, multiplicative domain, decoherence-free
algebra, conditional expectations, invariant states, period, cyclic and
MFNC decompositions, component channels and decoherence spectral gap.
"""

from chanstruct.numerics import Tolerances, MatrixSubspace
from chanstruct.channel import ChannelSpec, from_kraus
from chanstruct.algebra import commutant
from chanstruct.oqrw import OqrwSpec, build as build_oqrw, to_channel

__all__ = [
    "Tolerances",
    "MatrixSubspace",
    "ChannelSpec",
    "from_kraus",
    "commutant",
    "OqrwSpec",
    "build_oqrw",
    "to_channel",
]

__version__ = "0.1.0"
